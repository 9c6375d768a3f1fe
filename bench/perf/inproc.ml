(* The three in-process workloads: sweep-cold, plan-cold and
   warm-rerun.

   An untraced pass calls the library's public entry points
   ([Experiments.table_6_2], [Planner.plan],
   [Experiments.run_benchmark]) and times them from outside.  A traced
   pass rebuilds the same operations one layer call at a time — [Cu.make],
   one [Pass.run] per pass of [Nimble.transform_passes] and
   [Nimble.estimate_passes] (or per [Rewrite.to_pass] of a planner
   candidate), then the fast-tier replay and [Registry.check_result] —
   with a span around every call.  Both must render the same bytes. *)

open Common
module E = Uas_core.Experiments
module N = Uas_core.Nimble
module P = Uas_core.Planner
module Registry = Uas_bench_suite.Registry
module Parallel = Uas_runtime.Parallel
module Cu = Uas_pass.Cu
module Pass = Uas_pass.Pass
module Diag = Uas_pass.Diag
module Stages = Uas_pass.Stages
module Rewrite = Uas_transform.Rewrite
module Fast_interp = Uas_ir.Fast_interp
module Loop_nest = Uas_analysis.Loop_nest
module Sched = Uas_dfg.Sched

let table_benches () = Registry.all ()
let all_benches () = Registry.all () @ Registry.extras ()

(* exactly what [bench/main.exe table-6.2] prints, its banner included *)
let render_table rows = Fmt.str "@.==== Table 6.2 ====@.%a@." E.pp_table_6_2 rows
let render_estimate = Uas_service.Handler.render_estimate
let render_plan = Uas_service.Handler.render_plan

(* ---- output checks ----

   Renders with a committed golden must match it byte for byte; the
   others must match the first render of the same request in this run
   (untraced passes come first, so that is the library's own output). *)

let goldens =
  [ ("table", "table-6.2.txt");
    ("plan/Skipjack-mem", "plan-skipjack-mem.txt");
    ("plan/Wavelet3", "plan-wavelet3.txt");
    ("estimate/DES-hw", "estimate-des-hw.txt");
    ("estimate/IIR", "estimate-iir.txt");
    ("estimate/Skipjack-hw", "estimate-skipjack-hw.txt") ]

let reference : (string, string) Hashtbl.t = Hashtbl.create 16

let check_render acc ~key text =
  match Hashtbl.find_opt reference key with
  | Some expected -> check acc (String.equal text expected) "%s render differs" key
  | None -> (
    match List.assoc_opt key goldens with
    | Some file ->
      let expected = golden file in
      Hashtbl.replace reference key expected;
      check acc (String.equal text expected) "%s render differs from ci/goldens/%s"
        key file
    | None ->
      Hashtbl.replace reference key text;
      check acc true "%s" key)

(* The planner's only structural rejections are interchanges of nests
   that are not perfectly nested; any other skipped candidate means a
   rewrite broke. *)
let check_skips acc (plan : P.plan) =
  List.iter
    (fun (r : P.row) ->
      match r.P.r_outcome with
      | Ok _ -> ()
      | Error d ->
        let label = r.P.r_candidate.P.c_label in
        let expected =
          List.mem "interchange" r.P.r_candidate.P.c_sequence
          && String.equal d.Diag.d_pass "interchange"
        in
        if not expected then
          check acc false "%s: unexpected skipped candidate %s: %s"
            plan.P.p_benchmark label (Diag.to_string d))
    plan.P.p_rows

let plan_of (b : Registry.benchmark) =
  P.plan ~jobs b.Registry.b_program ~outer_index:b.Registry.b_outer_index
    ~inner_index:b.Registry.b_inner_index ~benchmark:b.Registry.b_name

(* ---- traced replicas ---- *)

let layer_of_pass = function
  | "loop-nest" -> "analysis.loop_nest"
  | "dfg-build" -> "dfg.build"
  | "schedule" -> "dfg.schedule"
  | "exact-ii" -> "dfg.exact_ii"
  | "estimate" -> "hw.estimate"
  | rewrite -> "transform." ^ rewrite

(* One [Pass.run] per pass; returns the outcome and the last unit
   reached, whose counters span the whole pipeline.  With a store
   installed, the canonical program text (the store key's main part) is
   taken explicitly before the DFG build, where the first store lookup
   would otherwise compute it, so its cost shows as its own span. *)
let run_passes tr cu passes =
  let keyed = Option.is_some (Store.installed ()) in
  let rec go cu = function
    | [] -> (Ok cu, cu)
    | (p : Pass.t) :: rest -> (
      if keyed && String.equal p.Pass.name "dfg-build" then
        Trace.with_span tr "pass.canonical_text" (fun () -> ignore (Cu.canonical_text cu));
      match Trace.with_span tr (layer_of_pass p.Pass.name) (fun () -> Pass.run cu [ p ]) with
      | Ok cu -> go cu rest
      | Error d -> (Error d, cu))
  in
  go cu passes

(* [Experiments]' cell with verify on the fast tier, exact-II off and no
   translation validation — the settings of every workload here. *)
let traced_cell tr ~parent (b : Registry.benchmark) v =
  Trace.with_span tr ~parent
    ~req:(b.Registry.b_name ^ "/" ^ N.version_name v)
    "cell"
  @@ fun () ->
  let cu =
    Trace.with_span tr "cu.make" (fun () ->
        Cu.make b.Registry.b_program ~outer_index:b.Registry.b_outer_index
          ~inner_index:b.Registry.b_inner_index)
  in
  let passes = N.transform_passes v @ N.estimate_passes v in
  let outcome, last = run_passes tr cu passes in
  let result =
    match outcome with
    | Error d -> Error { E.s_version = v; s_diag = d }
    | Ok cu ->
      let report = Option.get (Cu.report cu) in
      let incidents = ref (Cu.incidents cu) in
      let incident m =
        incidents := !incidents @ [ Diag.errorf ~pass:"verify" "%s" m ]
      in
      let verified =
        match
          let compiled =
            Trace.with_span tr "ir.interp_compile" (fun () -> Cu.compiled cu)
          in
          Trace.with_span tr "ir.interp_run" (fun () ->
              Fast_interp.run compiled b.Registry.b_workload)
        with
        | result -> (
          match
            Trace.with_span tr "bench_suite.check" (fun () ->
                Registry.check_result b result)
          with
          | Ok () -> true
          | Error m ->
            incident ("outputs differ from host reference: " ^ m);
            false)
        | exception Uas_ir.Interp.Stuck m ->
          incident ("verification run stuck: " ^ m);
          false
        | exception Uas_ir.Interp.Out_of_fuel ->
          incident "verification run out of fuel";
          false
      in
      Ok
        { E.c_version = v;
          c_report = report;
          c_verified = verified;
          c_gap = None;
          c_incidents = !incidents }
  in
  (result, Cu.hits last, Cu.misses last)

(* A candidate of [Planner.plan]: analyze, its rewrites through
   [Rewrite.to_pass], then the quick-synthesis stages.  Returns the row
   and, when it was estimated, its final unit. *)
let traced_candidate tr ~parent (b : Registry.benchmark) (c : P.candidate) =
  Trace.with_span tr ~parent ~req:(b.Registry.b_name ^ "/" ^ c.P.c_label) "candidate"
  @@ fun () ->
  let cu =
    Trace.with_span tr "cu.make" (fun () ->
        Cu.make b.Registry.b_program ~outer_index:b.Registry.b_outer_index
          ~inner_index:b.Registry.b_inner_index)
  in
  let rewrites =
    List.map
      (fun name ->
        let factor = if String.equal name "squash" then Some c.P.c_ds else None in
        Rewrite.to_pass ~params:{ Rewrite.default_params with factor } (Rewrite.get name))
      c.P.c_sequence
  in
  let pipelined = c.P.c_pipelined in
  let passes =
    (Stages.analyze :: rewrites)
    @ [ Stages.dfg_build ();
        Stages.schedule ~pipelined ();
        Stages.exact_ii ~pipelined ~mode:Sched.Exact_off ();
        Stages.estimate ~pipelined ~name:c.P.c_label () ]
  in
  let outcome, last = run_passes tr cu passes in
  let row, final =
    match outcome with
    | Ok cu ->
      ( { P.r_candidate = c;
          r_outcome = Ok (Option.get (Cu.report cu));
          r_gap = None;
          r_incidents = Cu.incidents cu },
        Some cu )
    | Error d ->
      ({ P.r_candidate = c; r_outcome = Error d; r_gap = None; r_incidents = [] }, None)
  in
  ((row, final), Cu.hits last, Cu.misses last)

let task_diag tf = Diag.errorf ~pass:"task" "%s" (Parallel.Task_failure.to_message tf)

(* Run [f] over [xs] on the pool, each task timed, and account the pool:
   busy time, how long tasks queued, how long one worker ran alone at
   the end (the straggler), and busy time over jobs x wall. *)
let traced_pool acc f xs =
  let t0 = now () in
  let results =
    Parallel.map_results ~jobs
      (fun x ->
        let s = now () in
        let r = f x in
        (r, s, now (), (Domain.self () :> int)))
      xs
  in
  let wall = now () -. t0 in
  let timed = List.filter_map Result.to_option results in
  let busy = List.fold_left (fun a (_, s, e, _) -> a +. (e -. s)) 0.0 timed in
  let wait = List.fold_left (fun a (_, s, _, _) -> a +. (s -. t0)) 0.0 timed in
  let last_by_worker = Hashtbl.create 4 in
  List.iter
    (fun (_, _, e, w) ->
      Hashtbl.replace last_by_worker w
        (Float.max e (Option.value ~default:0.0 (Hashtbl.find_opt last_by_worker w))))
    timed;
  let lasts = Hashtbl.fold (fun _ e l -> e :: l) last_by_worker [] in
  let straggler =
    match lasts with
    | [] | [ _ ] -> wall
    | _ -> List.fold_left Float.max 0.0 lasts -. List.fold_left Float.min infinity lasts
  in
  add acc "runtime.pool.busy_ms" (1000.0 *. busy);
  add acc "pool.tasks" (float_of_int (List.length timed));
  add acc "pool.wait_sum_ms" (1000.0 *. wait);
  add acc "runtime.pool.straggler_ms" (1000.0 *. straggler);
  add acc "pool.capacity_ms" (1000.0 *. float_of_int jobs *. wall);
  List.map (Result.map (fun (r, _, _, _) -> r)) results

let add_cu acc hits misses =
  add acc "cu.hits" (float_of_int hits);
  add acc "cu.misses" (float_of_int misses)

let transform_failed acc (d : Diag.t) =
  if Option.is_some (Rewrite.find d.Diag.d_pass) then add acc "transform.failed" 1.0

(* Cells of [tasks] through the traced pool, regrouped into rows the way
   [Experiments] groups them. *)
let traced_rows tr acc ~parent benches tasks =
  let cells =
    traced_pool acc (fun (b, v) -> traced_cell tr ~parent b v) tasks
    |> List.map2
         (fun ((b : Registry.benchmark), v) r ->
           let cell =
             match r with
             | Ok (r, hits, misses) ->
               add_cu acc hits misses;
               (match r with Error s -> transform_failed acc s.E.s_diag | Ok _ -> ());
               r
             | Error tf -> Error { E.s_version = v; s_diag = task_diag tf }
           in
           (b.Registry.b_name, cell))
         tasks
  in
  List.map
    (fun (b : Registry.benchmark) ->
      let mine =
        List.filter_map
          (fun (name, c) -> if String.equal name b.Registry.b_name then Some c else None)
          cells
      in
      { E.br_benchmark = b;
        br_cells = List.filter_map Result.to_option mine;
        br_skipped =
          List.filter_map (function Ok _ -> None | Error s -> Some s) mine })
    benches

let depth_of (b : Registry.benchmark) =
  Option.value ~default:2 (Loop_nest.depth_at b.Registry.b_program b.Registry.b_outer_index)

(* [Planner.plan]'s ranking for the default ratio objective: estimated
   rows by descending speedup/area, ties on II, cycles, area and label;
   skipped rows last. *)
let rank_key ~base (row : P.row) =
  match row.P.r_outcome with
  | Error _ -> (infinity, (max_int, max_int, max_int, row.P.r_candidate.P.c_label))
  | Ok r ->
    ( (match base with Some b -> -.P.ratio ~base:b r | None -> 0.0),
      ( r.Uas_hw.Estimate.r_ii,
        r.Uas_hw.Estimate.r_total_cycles,
        r.Uas_hw.Estimate.r_area_rows,
        row.P.r_candidate.P.c_label ) )

let traced_plan tr acc (b : Registry.benchmark) =
  Trace.with_span tr ~req:("plan/" ^ b.Registry.b_name) "core.plan" @@ fun () ->
  let parent = Trace.current () in
  let cands = P.candidates ~depth:(depth_of b) () in
  let scored =
    traced_pool acc (traced_candidate tr ~parent b) cands
    |> List.map2
         (fun c -> function
           | Ok ((row, final), hits, misses) ->
             add_cu acc hits misses;
             (match row.P.r_outcome with
             | Error d -> transform_failed acc d
             | Ok _ -> ());
             (row, final)
           | Error tf ->
             ( { P.r_candidate = c;
                 r_outcome = Error (task_diag tf);
                 r_gap = None;
                 r_incidents = [] },
               None ))
         cands
  in
  let rows = List.map fst scored in
  let baseline =
    List.find_map
      (fun (r : P.row) ->
        match (r.P.r_candidate.P.c_label, r.P.r_outcome) with
        | "original", Ok rep -> Some rep
        | _ -> None)
      rows
  in
  let ranked =
    List.stable_sort
      (fun x y -> compare (rank_key ~base:baseline x) (rank_key ~base:baseline y))
      rows
  in
  ( { P.p_benchmark = b.Registry.b_name;
      p_objective = P.Ratio;
      p_baseline = baseline;
      p_rows = ranked },
    List.filter_map snd scored )

(* How many of a plan's candidates rewrite to a program another one
   already produced: counted after the traced pass, outside its timing,
   since the untraced planner only prints canonical texts with a store
   installed. *)
let count_programs acc (cands, units) =
  let texts = List.sort_uniq compare (List.map (fun cu -> Digest.string (Cu.canonical_text cu)) units) in
  add acc "core.plan.candidates" (float_of_int cands);
  add acc "core.plan.distinct_programs" (float_of_int (List.length texts))

(* A traced pass: one root span, the store counters around it. *)
let traced acc tr i f =
  let store = Store.installed () in
  let before = Option.map Store.stats store in
  let r, dt =
    time (fun () -> Trace.with_span tr ~parent:Trace.root ~req:(Printf.sprintf "pass-%d" i) "pass" f)
  in
  (match (store, before) with
  | Some s, Some b -> store_delta acc b (Store.stats s)
  | _ -> ());
  acc.traced_passes <- dt :: acc.traced_passes;
  r

(* ---- the workloads ---- *)

(* The cold workloads run without a store, as [bench/main.exe table-6.2]
   and [nimblec plan] do by default.  With a fresh store per pass, its
   writes took over half of a plan-cold pass here, and their latency
   drifted from 0.30 to 0.46 s over six consecutive runs while the
   computation stayed at 0.17-0.18 s: a measurement of the shared
   disk, not of the compiler.  Store writes are still paid in the
   set-up of warm-rerun and daemon-estimate.

   Their set-up is what a fresh process does before its first request:
   build the benchmark registry (programs, workloads, host reference
   outputs).  It takes well under a millisecond, so one set-up sample
   times a hundred of them. *)
let cold_setup acc =
  Store.uninstall ();
  let (), dt =
    time (fun () ->
        for _ = 1 to 100 do
          ignore (all_benches ())
        done)
  in
  add_setup acc (dt /. 100.0)

let cold_setups = 9

(* One request per pass: the verified table itself, about 2 s, so a run
   holds about eight of them. *)
let sweep_cold ctx acc =
  acc.few_requests <- true;
  for _ = 1 to cold_setups do cold_setup acc done;
  measure ctx (fun i ->
      let rows =
        if traced_pass ctx i then
          let tr = Option.get ctx.trace in
          traced acc tr i (fun () ->
              let benches = table_benches () in
              let tasks =
                List.concat_map (fun b -> List.map (fun v -> (b, v)) N.paper_versions) benches
              in
              traced_rows tr acc ~parent:(Trace.current ()) benches tasks)
        else begin
          let rows, dt = time (fun () -> E.table_6_2 ~verify:true ~jobs ()) in
          add_pass acc dt;
          add_req acc dt;
          rows
        end
      in
      check_render acc ~key:"table" (render_table rows))

let check_plan acc (plan : P.plan) =
  check_render acc ~key:("plan/" ^ plan.P.p_benchmark) (render_plan plan);
  check_skips acc plan

(* six requests a pass: 17 passes give a p90 with ten samples above *)
let plan_cold ctx acc =
  for _ = 1 to cold_setups do cold_setup acc done;
  measure ctx ~min_passes:17 (fun i ->
      let order = shuffle ~seed:(ctx.seed + i) (all_benches ()) in
      let plans =
        if traced_pass ctx i then begin
          let tr = Option.get ctx.trace in
          let traced_plans = traced acc tr i (fun () -> List.map (traced_plan tr acc) order) in
          List.iter
            (fun ((p : P.plan), units) -> count_programs acc (List.length p.P.p_rows, units))
            traced_plans;
          List.map fst traced_plans
        end
        else begin
          let plans, dt =
            time (fun () ->
                List.map
                  (fun b ->
                    let plan, dt = time (fun () -> plan_of b) in
                    add_req acc dt;
                    plan)
                  order)
          in
          add_pass acc dt;
          plans
        end
      in
      List.iter (check_plan acc) plans)

(* Set-up of warm-rerun: one cold table-and-plan pass into a fresh
   store, which every later request reads. *)
let warm_setup ctx acc =
  let (_, dt) =
    time (fun () ->
        fresh_store ctx;
        ignore (E.table_6_2 ~verify:true ~jobs ());
        List.iter (fun b -> ignore (plan_of b)) (all_benches ()))
  in
  add_setup acc dt

let warm_rerun ctx acc =
  (* the last set-up's store is the one the passes read *)
  for _ = 1 to 3 do warm_setup ctx acc done;
  (* five estimate requests a pass *)
  measure ctx ~min_passes:20 (fun i ->
      let estimates = shuffle ~seed:(ctx.seed + i) (table_benches ()) in
      let plans = shuffle ~seed:(ctx.seed + i + 7919) (all_benches ()) in
      let rows, plans =
        if traced_pass ctx i then
          let tr = Option.get ctx.trace in
          traced acc tr i (fun () ->
              let rows =
                List.map
                  (fun (b : Registry.benchmark) ->
                    Trace.with_span tr ~req:("estimate/" ^ b.Registry.b_name) "core.estimate"
                      (fun () ->
                        let tasks = List.map (fun v -> (b, v)) (N.versions_for ~depth:(depth_of b)) in
                        List.hd (traced_rows tr acc ~parent:(Trace.current ()) [ b ] tasks)))
                  estimates
              in
              (* a warm plan is served from the planner's row cache, which
                 is internal to [Planner]: trace the call whole *)
              let plans =
                List.map
                  (fun (b : Registry.benchmark) ->
                    Trace.with_span tr ~req:("plan/" ^ b.Registry.b_name) "core.plan"
                      (fun () -> plan_of b))
                  plans
              in
              (rows, plans))
        else begin
          let (rows, plans), dt =
            time (fun () ->
                let rows =
                  List.map
                    (fun b ->
                      let row, dt = time (fun () -> E.run_benchmark ~verify:true ~jobs b) in
                      add_req acc dt;
                      row)
                    estimates
                in
                (rows, List.map plan_of plans))
          in
          add_pass acc dt;
          (rows, plans)
        end
      in
      List.iter
        (fun (row : E.bench_row) ->
          check_render acc
            ~key:("estimate/" ^ row.E.br_benchmark.Registry.b_name)
            (render_estimate row))
        rows;
      List.iter (check_plan acc) plans)
