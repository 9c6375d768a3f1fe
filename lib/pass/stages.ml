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

(* ensure-style artifact accessors *)

let ensure_dfg ~target cu =
  match Cu.dfg cu with
  | Some d -> d
  | None ->
    let d =
      Estimate.kernel_detail ~target (Cu.program cu)
        ~index:(Cu.inner_index cu)
    in
    Cu.set_dfg cu d;
    d

(* ---- persistent-store payloads and contexts ----

   The schedule payload carries the degradation note alongside the
   schedule itself, so a warm run replays the effort-exhausted incident
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

let schedule_context ~target ~pipelined cu =
  [ "target=" ^ Datapath.fingerprint target;
    "kernel=" ^ Cu.inner_index cu;
    "pipelined=" ^ string_of_bool pipelined;
    "effort=" ^ string_of_int Uas_dfg.Sched.default_effort ]

let exact_context ~target ~pipelined cu =
  schedule_context ~target ~pipelined cu
  @ [ "exact-effort=" ^ string_of_int Uas_dfg.Sched.default_exact_effort ]

let ensure_schedule ~target ~pipelined cu =
  match Cu.schedule cu with
  | Some s -> s
  | None -> (
    let context = schedule_context ~target ~pipelined cu in
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
    match cached with
    | Some (s, note) ->
      (* replay the degradation note, so a warm cell footnotes exactly
         like the cold one did *)
      (match note with
      | Some m -> Cu.add_incident cu (Diag.errorf ~pass:"schedule" "%s" m)
      | None -> ());
      Cu.set_schedule cu s;
      s
    | None ->
      let s, note =
        Estimate.kernel_schedule_note ~target ~pipelined
          (ensure_dfg ~target cu)
      in
      (* an exhausted effort budget degrades the cell, it never hangs
         the sweep: the note becomes a footnoted incident on the unit *)
      (match note with
      | Some m -> Cu.add_incident cu (Diag.errorf ~pass:"schedule" "%s" m)
      | None -> ());
      Cu.store_put cu ~kind:"schedule" ~context (schedule_payload (s, note));
      Cu.set_schedule cu s;
      s)

let ensure_exact ~target ~pipelined cu =
  match Cu.exact cu with
  | Some e -> e
  | None -> (
    let context = exact_context ~target ~pipelined cu in
    let cached =
      match Cu.store_get cu ~kind:"exact" ~context with
      | None -> None
      | Some payload -> (
        match Uas_dfg.Sched.exact_of_string payload with
        | Some _ as ok -> ok
        | None ->
          Cu.store_undecodable cu ~kind:"exact";
          None)
    in
    match cached with
    | Some e ->
      Cu.set_exact cu e;
      e
    | None ->
      let witness = ensure_schedule ~target ~pipelined cu in
      let e = Estimate.kernel_exact ~target ~witness (ensure_dfg ~target cu) in
      Cu.store_put cu ~kind:"exact" ~context
        (Uas_dfg.Sched.exact_to_string e);
      Cu.set_exact cu e;
      e)

let dfg_build ?(target = Datapath.default) () =
  Pass.v "dfg-build" (fun cu ->
      ignore (ensure_dfg ~target cu);
      Ok cu)

let schedule ?(target = Datapath.default) ~pipelined () =
  Pass.v "schedule" (fun cu ->
      ignore (ensure_schedule ~target ~pipelined cu);
      Ok cu)

(* ["exact-ii"]: the second oracle.  In [Exact_check] the heuristic
   schedule is validated against the raw constraint system; in
   [Exact_report] the exact backend additionally certifies (or
   brackets) the optimal II of a pipelined kernel.  An invalid
   heuristic schedule or a heuristic II below the certified optimum is
   a soundness incident on the unit — the pass itself never fails, so
   a sweep always completes with the evidence footnoted. *)
let exact_ii ?(target = Datapath.default) ~pipelined
    ~(mode : Uas_dfg.Sched.exact_mode) () =
  Pass.v "exact-ii" (fun cu ->
      (match mode with
      | Uas_dfg.Sched.Exact_off -> ()
      | Exact_check | Exact_report ->
        let detail = ensure_dfg ~target cu in
        let sched = ensure_schedule ~target ~pipelined cu in
        let cfg = Datapath.sched_config target in
        (match
           Uas_dfg.Sched.check_schedule ~cfg detail.Uas_dfg.Build.d_graph
             sched
         with
        | Ok () -> ()
        | Error msgs ->
          List.iter
            (fun m ->
              Cu.add_incident cu
                (Diag.errorf ~pass:"exact-ii"
                   "heuristic schedule invalid: %s" m))
            msgs);
        if mode = Exact_report && pipelined then begin
          let e = ensure_exact ~target ~pipelined cu in
          if sched.Uas_dfg.Sched.s_ii < e.Uas_dfg.Sched.e_proved then
            Cu.add_incident cu
              (Diag.errorf ~pass:"exact-ii"
                 "SOUNDNESS VIOLATION: heuristic II %d below the exact \
                  oracle's proven bound %d"
                 sched.Uas_dfg.Sched.s_ii e.Uas_dfg.Sched.e_proved)
        end);
      Ok cu)

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
let quick_synthesis ~target ~pipelined ~exact ~name =
  [ dfg_build ~target ();
    schedule ~target ~pipelined ();
    exact_ii ~target ~pipelined ~mode:exact ();
    estimate ~target ~pipelined ~name () ]

let gap ~exact ~pipelined cu =
  if exact = Uas_dfg.Sched.Exact_report && pipelined then
    match (Cu.schedule cu, Cu.exact cu) with
    | Some s, Some e -> Some (s.Uas_dfg.Sched.s_ii, e)
    | _ -> None
  else None

let names =
  [ "loop-nest"; "legality"; "dfg-build"; "schedule"; "exact-ii"; "estimate" ]
