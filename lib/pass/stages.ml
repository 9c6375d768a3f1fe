(* The nest lookup and quick-synthesis passes: each wraps one existing
   compiler stage in the Pass/Cu/Diag protocol.  (The transform passes
   live in the Uas_transform.Rewrite registry, which builds on this
   layer.)  Artifact-producing stages (dfg-build, schedule, estimate)
   are written ensure-style — they reuse a cached artifact when an
   earlier pass already built it, and build it themselves when run
   standalone — so pipelines stay composable without recomputation.
   The kernel schedule is the one artifact they keep in the persistent
   store, as a Uas_runtime.Record; the report is assembled afresh on
   every run. *)

module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Instrument = Uas_runtime.Instrument
module Record = Uas_runtime.Record

let trace cu = (Cu.ctx cu).Uas_runtime.Ctx.trace

let analyze =
  Pass.v "loop-nest" (fun cu ->
      match Cu.nest cu with
      | _ -> Ok cu
      | exception Not_found ->
        Error
          (Diag.errorf ~pass:"loop-nest" ~loop:(Cu.outer_index cu)
             "no loop nest with outer index %s" (Cu.outer_index cu)))

(* ensure-style artifact accessors; each computation runs under its
   own span ([dfg-build], [schedule]) *)

let ensure_dfg cu =
  match Cu.dfg cu with
  | Some d -> d
  | None ->
    let d =
      Instrument.span (trace cu) "dfg-build" (fun () ->
          Estimate.kernel_detail (Cu.program cu) ~index:(Cu.inner_index cu))
    in
    Cu.set_dfg cu d;
    d

(* ---- persistent-store payloads and contexts ----

   The schedule payload is a Record: [ii], [len], [times]
   (comma-separated issue cycles) and, when there is one, the
   schedule's [note], so a warm run replays a budget-exhausted incident
   and renders footers byte-identical to the cold run.  The context
   list hashes everything the computation depends on besides the
   program text (which Cu adds to every key): which loop is the kernel,
   the datapath, the pipelining flag and the effort budgets. *)

let schedule_fields ((s : Uas_dfg.Sched.schedule), note) =
  [ ("ii", string_of_int s.s_ii);
    ("len", string_of_int s.s_length);
    ( "times",
      String.concat "," (List.map string_of_int (Array.to_list s.s_times)) ) ]
  @ Option.to_list (Option.map (fun m -> ("note", m)) note)

let schedule_of_fields r =
  let ( let* ) = Option.bind in
  let* s_ii = Record.int "ii" r in
  let* s_length = Record.int "len" r in
  let* times = Record.find "times" r in
  let parts =
    if String.equal times "" then [] else String.split_on_char ',' times
  in
  let s_times = List.filter_map int_of_string_opt parts in
  if List.compare_lengths s_times parts <> 0 then None
  else
    Some
      ( { Uas_dfg.Sched.s_ii; s_length; s_times = Array.of_list s_times },
        Record.find "note" r )

let schedule_context ?(exact_effort = Uas_dfg.Sched.default_exact_effort)
    ~target ~pipelined cu =
  [ "target=" ^ Datapath.fingerprint target;
    "cost-model=" ^ string_of_int Estimate.cost_model_version;
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
      Cu.store_get cu ~kind:"schedule" ~context ~decode:schedule_of_fields
    in
    let detail = ensure_dfg cu in
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
        Cu.store_put cu ~kind:"schedule" ~context (schedule_fields (s, note));
        s
    in
    check_schedule ~target cu detail s;
    Cu.set_schedule cu s;
    s)

(* A quick-synthesis stage: a loop the estimator cannot model (dynamic
   bounds, a body that is not one basic block) is a diagnostic on the
   kernel loop, whichever stage finds out. *)
let kernel_stage name f =
  Pass.v name (fun cu ->
      match f cu with
      | () -> Ok cu
      | exception Estimate.Not_a_kernel m ->
        Error
          (Diag.errorf ~pass:name ~loop:(Cu.inner_index cu)
             "not a hardware kernel: %s" m))

let dfg_build () =
  kernel_stage "dfg-build" (fun cu -> ignore (ensure_dfg cu))

let schedule ?(target = Datapath.default) ?exact_effort ~pipelined () =
  kernel_stage "schedule" (fun cu ->
      ignore (ensure_schedule ?exact_effort ~target ~pipelined cu))

(* Kept only for the frozen perf harness: the deleted exact-II pass,
   now a no-op. *)
let exact_ii ~pipelined:_ ~mode:(_ : Uas_dfg.Sched.exact_mode) () =
  Pass.v "exact-ii" (fun cu -> Ok cu)

let estimate ?(target = Datapath.default) ~pipelined ?name () =
  kernel_stage "estimate" (fun cu ->
      let detail = ensure_dfg cu in
      let sched = ensure_schedule ~target ~pipelined cu in
      Cu.set_report cu
        (Estimate.assemble ~target ~pipelined ?name (Cu.program cu)
           ~index:(Cu.inner_index cu) detail sched))

(* The quick-synthesis tail every driver runs after its rewrites: the
   sweep's versions and the planner's candidates estimate alike. *)
let quick_synthesis ~target ~pipelined ~name =
  [ dfg_build ();
    schedule ~target ~pipelined ();
    estimate ~target ~pipelined ~name () ]

let names = [ "loop-nest"; "dfg-build"; "schedule"; "estimate" ]
