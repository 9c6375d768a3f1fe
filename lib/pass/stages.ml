(* The analysis and quick-synthesis passes: each wraps one existing
   compiler stage in the Pass/Cu/Diag protocol.  (The transform passes
   live in the Uas_transform.Rewrite registry, which builds on this
   layer.)  Artifact-producing stages (dfg-build, schedule, estimate)
   are written ensure-style — they reuse a cached artifact when an
   earlier pass already built it, and build it themselves when run
   standalone — so pipelines stay composable without recomputation. *)

module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality
module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Instrument = Uas_runtime.Instrument

let trace cu = (Cu.ctx cu).Uas_runtime.Ctx.trace

let analyze =
  Pass.v "loop-nest" (fun cu ->
      match
        Loop_nest.find_by_outer_index_opt (Cu.program cu) (Cu.outer_index cu)
      with
      | None ->
        Error
          (Diag.errorf ~pass:"loop-nest" ~loop:(Cu.outer_index cu)
             "no loop nest with outer index %s" (Cu.outer_index cu))
      | Some _ ->
        (* warm the caches the downstream passes consult *)
        ignore (Cu.nest cu);
        ignore (Cu.def_use cu);
        ignore (Cu.liveness cu);
        ignore (Cu.induction cu);
        Ok cu)

let legality ~ds =
  Pass.v "legality" (fun cu ->
      let verdict = Legality.check (Cu.nest cu) ~ds in
      if verdict.Legality.ok then Ok cu
      else
        Error
          (Diag.errorf ~pass:"legality" ~loop:(Cu.outer_index cu)
             "factor %d: %a" ds Legality.pp_verdict verdict))

(* ensure-style artifact accessors; each computation runs under its
   own span ([dfg-build], [schedule]) *)

let ensure_dfg ~target cu =
  match Cu.dfg cu with
  | Some d -> d
  | None ->
    let d =
      Instrument.span (trace cu) "dfg-build" (fun () ->
          Estimate.kernel_detail ~target (Cu.program cu)
            ~index:(Cu.inner_index cu))
    in
    Cu.set_dfg cu d;
    d

(* ---- persistent-store payloads and contexts ----

   The schedule payload carries the schedule's note alongside the
   schedule itself, so a warm run replays a budget-exhausted incident
   and renders footers byte-identical to the cold run.  The context
   lists hash everything the computation depends on besides the program
   text and rewrite trail (which Cu.store_key adds): which loop is the
   kernel, the datapath, the pipelining flag, effort budgets and — for
   reports — the cost-model version and the report name. *)

let schedule_payload (s, note) =
  (match note with
  | None -> "note -"
  | Some m -> "note " ^ String.escaped m)
  ^ "\n"
  ^ Uas_dfg.Sched.schedule_to_string s

let schedule_of_payload payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i -> (
    let first = String.sub payload 0 i in
    let rest = String.sub payload (i + 1) (String.length payload - i - 1) in
    let note =
      if String.equal first "note -" then Some None
      else if
        String.length first > 5 && String.equal (String.sub first 0 5) "note "
      then
        match Scanf.unescaped (String.sub first 5 (String.length first - 5)) with
        | m -> Some (Some m)
        | exception _ -> None
      else None
    in
    match (note, Uas_dfg.Sched.schedule_of_string rest) with
    | Some note, Some s -> Some (s, note)
    | _ -> None)

let schedule_context ?(exact_effort = Uas_dfg.Sched.default_exact_effort)
    ~target ~pipelined cu =
  [ "target=" ^ Datapath.fingerprint target;
    "kernel=" ^ Cu.inner_index cu;
    "pipelined=" ^ string_of_bool pipelined;
    "effort=" ^ string_of_int Uas_dfg.Sched.default_effort;
    "exact-effort=" ^ string_of_int exact_effort ]

(* Every schedule returned, fresh or from the store, is checked against
   the raw constraint system; a violation is an incident on the unit. *)
let check_schedule ~target cu detail s =
  match
    Uas_dfg.Sched.check_schedule
      ~cfg:(Datapath.sched_config target)
      detail.Uas_dfg.Build.d_graph s
  with
  | Ok () -> ()
  | Error msgs ->
    List.iter
      (fun m ->
        Cu.add_incident cu
          (Diag.errorf ~pass:"schedule" "schedule invalid: %s" m))
      msgs

let ensure_schedule ?exact_effort ~target ~pipelined cu =
  match Cu.schedule cu with
  | Some s -> s
  | None -> (
    let context = schedule_context ?exact_effort ~target ~pipelined cu in
    let cached =
      match Cu.store_get cu ~kind:"schedule" ~context with
      | None -> None
      | Some payload -> (
        match schedule_of_payload payload with
        | Some _ as ok -> ok
        | None ->
          Cu.store_undecodable cu ~kind:"schedule";
          None)
    in
    let detail = ensure_dfg ~target cu in
    let s =
      match cached with
      | Some (s, note) ->
        (* replay the note, so a warm cell footnotes exactly like the
           cold one did *)
        (match note with
        | Some m -> Cu.add_incident cu (Diag.errorf ~pass:"schedule" "%s" m)
        | None -> ());
        s
      | None ->
        let s, note =
          Instrument.span (trace cu) "schedule" (fun () ->
              Estimate.kernel_schedule_note ~target ~pipelined ?exact_effort
                detail)
        in
        (* an exhausted budget degrades the cell, it never hangs the
           sweep: the note becomes a footnoted incident on the unit *)
        (match note with
        | Some m ->
          Instrument.incr (trace cu) "sched.effort-degraded";
          Cu.add_incident cu (Diag.errorf ~pass:"schedule" "%s" m)
        | None -> ());
        Cu.store_put cu ~kind:"schedule" ~context (schedule_payload (s, note));
        s
    in
    check_schedule ~target cu detail s;
    Cu.set_schedule cu s;
    s)

let dfg_build ?(target = Datapath.default) () =
  Pass.v "dfg-build" (fun cu ->
      ignore (ensure_dfg ~target cu);
      Ok cu)

let schedule ?(target = Datapath.default) ?exact_effort ~pipelined () =
  Pass.v "schedule" (fun cu ->
      ignore (ensure_schedule ?exact_effort ~target ~pipelined cu);
      Ok cu)

(* Kept only for the frozen perf harness: the deleted exact-II pass,
   now a no-op. *)
let exact_ii ~pipelined:_ ~mode:(_ : Uas_dfg.Sched.exact_mode) () =
  Pass.v "exact-ii" (fun cu -> Ok cu)

let estimate ?(target = Datapath.default) ~pipelined ?name () =
  Pass.v "estimate" (fun cu ->
      let resolved_name =
        match name with
        | Some n -> n
        | None -> (Cu.program cu).Uas_ir.Stmt.prog_name
      in
      let context =
        schedule_context ~target ~pipelined cu
        @ [ "cost-model=" ^ string_of_int Estimate.cost_model_version;
            "name=" ^ resolved_name ]
      in
      let cached =
        match Cu.store_get cu ~kind:"report" ~context with
        | None -> None
        | Some payload -> (
          match Estimate.report_of_string payload with
          | Some _ as ok -> ok
          | None ->
            Cu.store_undecodable cu ~kind:"report";
            None)
      in
      let report =
        match cached with
        | Some r -> r
        | None ->
          let detail = ensure_dfg ~target cu in
          let sched = ensure_schedule ~target ~pipelined cu in
          let r =
            Estimate.assemble ~target ~pipelined ?name (Cu.program cu)
              ~index:(Cu.inner_index cu) detail sched
          in
          Cu.store_put cu ~kind:"report" ~context
            (Estimate.report_to_string r);
          r
      in
      Cu.set_report cu report;
      Ok cu)

(* The quick-synthesis tail every driver runs after its rewrites: the
   sweep's versions and the planner's candidates estimate alike. *)
let quick_synthesis ~target ~pipelined ~name =
  [ dfg_build ~target ();
    schedule ~target ~pipelined ();
    estimate ~target ~pipelined ~name () ]

let names = [ "loop-nest"; "legality"; "dfg-build"; "schedule"; "estimate" ]
