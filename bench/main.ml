(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus Bechamel wall-clock microbenchmarks of the
   compiler passes themselves and two ablations of the hardware model.

   Usage:
     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table-6.2 figure-6.3 ...
     dune exec bench/main.exe -- -j 4 --timings table-6.2
     dune exec bench/main.exe -- --json BENCH_sweep.json table-6.2 micro
   Targets: table-1.1 table-6.1 table-6.2 table-6.3 figure-2 figure-2.4
            figure-4 figure-6.1 figure-6.2 figure-6.3 figure-6.4
            ablation-ports ablation-registers plan micro
   Flags: -j N (worker-pool size; default UAS_JOBS or the core count),
          --timings (per-pass span/counter summary at exit),
          --interp ref|fast (interpreter tier for
          verification/profiling),
          --json FILE (write the perf-trajectory document there),
          --validate off|probe (translation-validate every rewrite),
          --exact-ii off|check|report (second II oracle: validate the
          heuristic schedules, or also certify the optimal II per cell),
          --task-timeout SECS / --retries N (pool supervision),
          --fault PLAN (arm the fault-injection registry; testing),
          --cache DIR (persistent artifact store; default UAS_CACHE),
          --cache-verify (recompute and compare against cached artifacts),
          --cache-warm (re-run every requested target after the cold pass,
          recording "<target> (warm)" wall-clock),
          --version (print the build version line and exit) *)

open Uas_ir
module S = Uas_bench_suite
module E = Uas_core.Experiments
module N = Uas_core.Nimble
module P = Uas_core.Planner
module Instrument = Uas_runtime.Instrument
module Trajectory = Uas_runtime.Trajectory

let header title = Fmt.pr "@.==== %s ====@." title

(* -j N from the command line; None lets the pool pick UAS_JOBS or the
   core count *)
let jobs : int option ref = ref None

(* the fault-tolerance knobs (--validate / --task-timeout / --retries) *)
let validate : bool ref = ref false
let task_timeout : float option ref = ref None
let retries : int option ref = ref None

(* --exact-ii off|check|report: the second II oracle per sweep cell *)
let exact : Uas_dfg.Sched.exact_mode ref = ref Uas_dfg.Sched.Exact_off

(* the perf-trajectory document of this run (--json); microbenchmarks
   record their estimates here as named metrics *)
let trajectory : Trajectory.t option ref = ref None

let metric ~name ~value ~unit_label =
  match !trajectory with
  | Some t -> Trajectory.add_metric t ~name ~value ~unit_label
  | None -> ()

let incident ~site ~cell ~message =
  match !trajectory with
  | Some t -> Trajectory.add_incident t ~site ~cell ~message
  | None -> ()

(* Table 6.2 is the expensive part (50 transformed programs, each
   replayed in the interpreter); computed once — fanned out over the
   domain pool — and shared.  Degraded cells and skips land in the
   trajectory's incident log. *)
let rows_cache : E.bench_row list option ref = ref None

let rows () =
  match !rows_cache with
  | Some r -> r
  | None ->
    let r =
      E.table_6_2 ~verify:true ~validate:!validate ~exact:!exact ?jobs:!jobs
        ?timeout_s:!task_timeout ?retries:!retries ()
    in
    rows_cache := Some r;
    List.iter
      (fun (row : E.bench_row) ->
        let bench = row.E.br_benchmark.S.Registry.b_name in
        List.iter
          (fun (c : E.cell) ->
            (match (!trajectory, c.E.c_gap) with
            | Some t, Some (hii, e) ->
              let module Sched = Uas_dfg.Sched in
              let optimal =
                match (e.Sched.e_status, e.Sched.e_schedule) with
                | Sched.Exact_optimal, Some w -> Some w.Sched.s_ii
                | _ -> None
              in
              Trajectory.add_gap t
                { Trajectory.g_benchmark = bench;
                  g_version = N.version_name c.E.c_version;
                  g_heuristic_ii = hii;
                  g_optimal_ii = optimal;
                  g_proved_ii = e.Sched.e_proved;
                  g_gap = Option.map (fun o -> hii - o) optimal;
                  g_status = Sched.exact_status_name e.Sched.e_status;
                  g_expansions = e.Sched.e_expansions }
            | _ -> ());
            List.iter
              (fun d ->
                incident ~site:"sweep"
                  ~cell:(bench ^ "/" ^ N.version_name c.E.c_version)
                  ~message:(Uas_pass.Diag.to_string d))
              c.E.c_incidents)
          row.E.br_cells;
        List.iter
          (fun (s : E.skip) ->
            incident ~site:"sweep"
              ~cell:(bench ^ "/" ^ N.version_name s.E.s_version)
              ~message:("skipped: " ^ Uas_pass.Diag.to_string s.E.s_diag))
          row.E.br_skipped)
      r;
    r

(* --- Table 1.1 --- *)

let table_1_1 () =
  header "Table 1.1: program execution time in loops";
  Fmt.pr "%-28s %8s %12s %10s   %s@." "benchmark" "# loops" "# loops>1%"
    "total %" "(paper: loops/hot/%)";
  List.iter
    (fun (r : S.Profile.row) ->
      let pl, ph, pp = r.S.Profile.paper in
      Fmt.pr "%-28s %8d %12d %9.0f%%   (%d/%d/%d%%)@." r.S.Profile.row_app
        r.S.Profile.loops r.S.Profile.hot_loops r.S.Profile.hot_percent pl ph
        pp)
    (S.Profile.table ())

(* --- Table 6.1 --- *)

let table_6_1 () =
  header "Table 6.1: benchmark description";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      Fmt.pr "%-14s %s@." b.S.Registry.b_name b.S.Registry.b_description)
    (S.Registry.all ())

(* --- Figure 2.1-2.3: the motivating example, transformed --- *)

let figure_2 () =
  header "Figure 2.1-2.3: the f/g loop nest, original / jam(2) / squash(2)";
  let p = S.Simple.fg_loop ~m:4 ~n:4 in
  Fmt.pr "--- original (Figure 2.1) ---@.%a@." Pp.pp_program p;
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let jam = Uas_transform.Unroll_and_jam.apply p nest ~ds:2 in
  Fmt.pr "--- unroll-and-jam by 2 (Figure 2.2) ---@.%a@." Pp.pp_program
    jam.Uas_transform.Unroll_and_jam.program;
  let sq = Uas_transform.Squash.apply p nest ~ds:2 in
  Fmt.pr "--- unroll-and-squash by 2 (Figure 2.3) ---@.%a@." Pp.pp_program
    sq.Uas_transform.Squash.program;
  (* the headline claim: same throughput as jam, without doubling ops *)
  let ii q index pipelined =
    (Uas_hw.Estimate.kernel ~pipelined q ~index).Uas_hw.Estimate.r_ii
  in
  Fmt.pr "original:  II=%d (non-pipelined schedule)@." (ii p "j" false);
  Fmt.pr "jam(2):    II=%d, operators x2@."
    (ii jam.Uas_transform.Unroll_and_jam.program "j" true);
  Fmt.pr "squash(2): II=%d, operators unchanged@."
    (ii sq.Uas_transform.Squash.program sq.Uas_transform.Squash.new_inner_index
       true)

(* --- Figure 2.4 --- *)

let figure_2_4 () =
  header "Figure 2.4: operator usage over time (jam vs squash)";
  List.iter
    (fun (name, cells) ->
      Fmt.pr "@.%s@." name;
      let ops =
        List.sort_uniq compare (List.map (fun c -> c.E.u_operator) cells)
      in
      List.iter
        (fun op ->
          Fmt.pr "  %-3s |" op;
          List.iter
            (fun c ->
              if String.equal c.E.u_operator op then
                match c.E.u_data_set with
                | Some d -> Fmt.pr " %d" (d + 1)
                | None -> Fmt.pr " .")
            cells;
          Fmt.pr "@.")
        ops)
    (E.figure_2_4 ~cycles:10)

(* --- Figure 4.1/4.2: DFG build and stage assignment --- *)

let figure_4 () =
  header "Figure 4.1/4.2: DFG of the chapter-4 kernel and its 4 stages";
  let p = S.Simple.ch4_loop ~m:8 ~n:4 in
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let g, _ =
    Uas_dfg.Build.build ~inner_index:"j" nest.Uas_analysis.Loop_nest.inner_body
  in
  Fmt.pr "%a@." Uas_dfg.Graph.pp g;
  Fmt.pr "RecMII=%d  critical path=%d@."
    (Uas_dfg.Graph.recurrence_mii g)
    (Uas_dfg.Graph.critical_path g);
  let slices =
    Uas_dfg.Stage.partition ~stages:4 nest.Uas_analysis.Loop_nest.inner_body
  in
  let costs = Uas_dfg.Stage.stage_costs slices in
  List.iteri
    (fun s slice ->
      Fmt.pr "stage %d (delay %d):@." (s + 1) (List.nth costs s);
      List.iter (fun st -> Fmt.pr "  %s@." (Pp.stmt_to_string st)) slice)
    slices

(* --- Tables 6.2/6.3 and figures 6.1-6.4 --- *)

let table_6_2 () =
  header "Table 6.2";
  Fmt.pr "%a@." E.pp_table_6_2 (rows ())

let table_6_3 () =
  header "Table 6.3";
  Fmt.pr "%a@." E.pp_table_6_3 (rows ())

let figure_6_1 () =
  header "Figure 6.1: speedup factor";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"speedup vs original")
    (E.figure_6_1 (rows ()))

let figure_6_2 () =
  header "Figure 6.2: area increase factor";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"area vs original")
    (E.figure_6_2 (rows ()))

let figure_6_3 () =
  header "Figure 6.3: efficiency factor (speedup/area) — higher is better";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"speedup/area")
    (E.figure_6_3 (rows ()))

let figure_6_4 () =
  header "Figure 6.4: operators as percent of the area";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"% of area")
    (E.figure_6_4 (rows ()))

(* --- ablations --- *)

let ablation_ports () =
  header "Ablation: memory ports (II of squash(8) per benchmark)";
  Fmt.pr "%-14s %8s %8s %8s@." "benchmark" "1 port" "2 ports" "4 ports";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let built =
        N.build_version b.S.Registry.b_program
          ~outer_index:b.S.Registry.b_outer_index
          ~inner_index:b.S.Registry.b_inner_index (N.Squashed 8)
      in
      let ii target = (N.estimate ~target built).Uas_hw.Estimate.r_ii in
      Fmt.pr "%-14s %8d %8d %8d@." b.S.Registry.b_name
        (ii Uas_hw.Datapath.single_port)
        (ii Uas_hw.Datapath.default)
        (ii Uas_hw.Datapath.quad_port))
    (S.Registry.all ())

let ablation_registers () =
  header
    "Ablation: packed shift registers (area of squash(16); §6.3 argues the \
     1-row-per-register figures are conservative)";
  Fmt.pr "%-14s %12s %12s@." "benchmark" "1 reg/row" "4 regs/row";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let built =
        N.build_version b.S.Registry.b_program
          ~outer_index:b.S.Registry.b_outer_index
          ~inner_index:b.S.Registry.b_inner_index (N.Squashed 16)
      in
      let area target = (N.estimate ~target built).Uas_hw.Estimate.r_area_rows in
      Fmt.pr "%-14s %12d %12d@." b.S.Registry.b_name
        (area Uas_hw.Datapath.default)
        (area Uas_hw.Datapath.packed_registers))
    (S.Registry.all ())

(* --- the §2 composition: jam to fill the datapath, squash on top --- *)

let combined () =
  header
    "Combined jam+squash (§2: \"quadruples the performance but only \
     doubles the area\")";
  Fmt.pr "%-18s %6s %8s %9s %8s %10s@." "version" "II" "area" "speedup"
    "areaX" "efficiency";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      Fmt.pr "@.%s@." b.S.Registry.b_name;
      let versions =
        [ N.Original; N.Jammed 2; N.Squashed 4; N.Combined (2, 2);
          N.Combined (2, 4); N.Combined (4, 2) ]
      in
      let probe =
        if !validate then Some b.S.Registry.b_workload else None
      in
      let outcomes =
        N.sweep ~versions ?jobs:!jobs ?validate:probe
          ?timeout_s:!task_timeout ?retries:!retries b.S.Registry.b_program
          ~outer_index:b.S.Registry.b_outer_index
          ~inner_index:b.S.Registry.b_inner_index
      in
      let rows = N.successes outcomes in
      let base =
        List.find_map
          (fun (v, _, r) -> if v = N.Original then Some r else None)
          rows
      in
      (match base with
      | None -> ()
      | Some base ->
        List.iter
          (fun (v, _, (r : Uas_hw.Estimate.report)) ->
            let speedup =
              float_of_int base.Uas_hw.Estimate.r_total_cycles
              /. float_of_int r.Uas_hw.Estimate.r_total_cycles
            in
            let area =
              float_of_int r.Uas_hw.Estimate.r_area_rows
              /. float_of_int base.Uas_hw.Estimate.r_area_rows
            in
            Fmt.pr "%-18s %6d %8d %9.2f %8.2f %10.2f@." (N.version_name v)
              r.Uas_hw.Estimate.r_ii r.Uas_hw.Estimate.r_area_rows speedup
              area (speedup /. area))
          rows);
      List.iter
        (fun (v, ds) ->
          List.iter
            (fun d ->
              Fmt.pr "degraded: %-12s — %a@." (N.version_name v)
                Uas_pass.Diag.pp d;
              incident ~site:"combined"
                ~cell:(b.S.Registry.b_name ^ "/" ^ N.version_name v)
                ~message:(Uas_pass.Diag.to_string d))
            ds)
        (N.degraded outcomes);
      List.iter
        (fun (v, d) ->
          Fmt.pr "skipped: %-12s — %a@." (N.version_name v) Uas_pass.Diag.pp d)
        (N.skipped outcomes))
    (S.Registry.all ())

let ablation_width () =
  header
    "Ablation: width-aware operator sizing (the back-end sizing of §5.4; \
     operator rows scaled to inferred bit widths)";
  Fmt.pr "%-14s %12s %12s %8s@." "benchmark" "32-bit rows" "width-aware"
    "ratio";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let nest =
        Uas_analysis.Loop_nest.find_by_outer_index b.S.Registry.b_program
          b.S.Registry.b_outer_index
      in
      let detail =
        Uas_dfg.Build.build_detailed ~inner_index:b.S.Registry.b_inner_index
          nest.Uas_analysis.Loop_nest.inner_body
      in
      let roms =
        List.map
          (fun (r : Uas_ir.Stmt.rom_decl) ->
            (r.Uas_ir.Stmt.r_name, r.Uas_ir.Stmt.r_data))
          b.S.Registry.b_program.Uas_ir.Stmt.roms
      in
      (* back-end knowledge: loop index bounds and 16/32-bit data words *)
      let entry name =
        if String.equal name b.S.Registry.b_inner_index then
          Some { Uas_hw.Bitwidth.lo = 0; hi = 64 }
        else if String.length name >= 1 && name.[0] = 'w' then
          Some { Uas_hw.Bitwidth.lo = 0; hi = 0xffff }
        else None
      in
      let default = Uas_dfg.Graph.total_operator_area detail.Uas_dfg.Build.d_graph in
      let aware = Uas_hw.Bitwidth.width_aware_operator_area ~entry detail ~roms in
      Fmt.pr "%-14s %12d %12d %8.2f@." b.S.Registry.b_name default aware
        (float_of_int aware /. float_of_int default))
    (S.Registry.all ())

(* --- the transform planner: ranked rewrite sequences per benchmark --- *)

let plan_rows_for_trajectory (plan : P.plan) : Trajectory.plan_row list =
  let rank = ref 0 in
  List.map
    (fun (row : P.row) ->
      let label = row.P.r_candidate.P.c_label
      and ds = row.P.r_candidate.P.c_ds in
      match row.P.r_outcome with
      | Ok (r : Uas_hw.Estimate.report) ->
        incr rank;
        let speedup, ratio =
          match plan.P.p_baseline with
          | Some base -> (P.speedup ~base r, P.ratio ~base r)
          | None -> (1.0, 1.0)
        in
        { Trajectory.pr_rank = !rank;
          pr_label = label;
          pr_ds = ds;
          pr_ii = r.Uas_hw.Estimate.r_ii;
          pr_area = r.Uas_hw.Estimate.r_area_rows;
          pr_cycles = r.Uas_hw.Estimate.r_total_cycles;
          pr_speedup = speedup;
          pr_ratio = ratio;
          pr_skipped = None }
      | Error d ->
        { Trajectory.pr_rank = 0;
          pr_label = label;
          pr_ds = ds;
          pr_ii = 0;
          pr_area = 0;
          pr_cycles = 0;
          pr_speedup = 0.0;
          pr_ratio = 0.0;
          pr_skipped = Some (Uas_pass.Diag.to_string d) })
    plan.P.p_rows

let plan_target () =
  header "Transform plans: rewrite sequences ending in squash, ranked by \
          the cost model";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let probe =
        if !validate then Some b.S.Registry.b_workload else None
      in
      let plan =
        P.plan ?jobs:!jobs ?validate:probe ~exact:!exact
          ?timeout_s:!task_timeout ?retries:!retries b.S.Registry.b_program
          ~outer_index:b.S.Registry.b_outer_index
          ~inner_index:b.S.Registry.b_inner_index
          ~benchmark:b.S.Registry.b_name
      in
      Fmt.pr "%a@." P.pp plan;
      List.iter
        (fun (row : P.row) ->
          List.iter
            (fun d ->
              incident ~site:"plan"
                ~cell:(plan.P.p_benchmark ^ "/" ^ row.P.r_candidate.P.c_label)
                ~message:(Uas_pass.Diag.to_string d))
            row.P.r_incidents)
        plan.P.p_rows;
      match !trajectory with
      | Some t ->
        Trajectory.add_plan t ~benchmark:plan.P.p_benchmark
          ~objective:(P.objective_name plan.P.p_objective)
          (plan_rows_for_trajectory plan)
      | None -> ())
    (* the extras ride along here (the 3-deep wavelet nest and its
       flatten-enabled candidates), but stay out of the Table 6.2
       reproduction targets above *)
    (S.Registry.all () @ S.Registry.extras ())

(* --- Bechamel microbenchmarks of the passes --- *)

let micro () =
  header "Microbenchmarks: wall-clock time of the compiler passes";
  (* NB: [open Bechamel] would shadow the [S] alias with Bechamel.S *)
  let module Sj = Uas_bench_suite.Skipjack in
  let open Bechamel in
  let p = Sj.skipjack_mem ~m:16 in
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let tests =
    [ Test.make ~name:"squash(2) skipjack"
        (Staged.stage (fun () -> ignore (Uas_transform.Squash.apply p nest ~ds:2)));
      Test.make ~name:"squash(8) skipjack"
        (Staged.stage (fun () -> ignore (Uas_transform.Squash.apply p nest ~ds:8)));
      Test.make ~name:"jam(2) skipjack"
        (Staged.stage (fun () ->
             ignore (Uas_transform.Unroll_and_jam.apply p nest ~ds:2)));
      Test.make ~name:"jam(8) skipjack"
        (Staged.stage (fun () ->
             ignore (Uas_transform.Unroll_and_jam.apply p nest ~ds:8)));
      Test.make ~name:"estimate skipjack kernel"
        (Staged.stage (fun () -> ignore (Uas_hw.Estimate.kernel p ~index:"j")));
      Test.make ~name:"dfg build skipjack body"
        (Staged.stage (fun () ->
             ignore
               (Uas_dfg.Build.build ~inner_index:"j"
                  nest.Uas_analysis.Loop_nest.inner_body)));
      Test.make ~name:"legality check (ds=8)"
        (Staged.stage (fun () -> ignore (Uas_analysis.Legality.check nest ~ds:8)));
      (* the two interpreter tiers head to head, on an integer kernel
         (Skipjack) and a float one (IIR); the ref/fast ns-per-run pairs
         land in the --json trajectory as the recorded speedup *)
      (let w =
         Sj.workload_mem ~key:(Sj.random_key ~seed:1)
           (Sj.random_words ~seed:2 64)
       in
       Test.make ~name:"interp-ref skipjack (16 blocks)"
         (Staged.stage (fun () -> ignore (Interp.run p w))));
      (let w =
         Sj.workload_mem ~key:(Sj.random_key ~seed:1)
           (Sj.random_words ~seed:2 64)
       in
       let compiled = Fast_interp.compile p in
       Test.make ~name:"interp-fast skipjack (16 blocks)"
         (Staged.stage (fun () -> ignore (Fast_interp.run compiled w))));
      (let module Iir = Uas_bench_suite.Iir in
       let ip = Iir.iir ~channels:4 in
       let w =
         Iir.workload (Iir.random_signal ~seed:3 (4 * Iir.points_per_channel))
       in
       Test.make ~name:"interp-ref iir (4 channels)"
         (Staged.stage (fun () -> ignore (Interp.run ip w))));
      (let module Iir = Uas_bench_suite.Iir in
       let ip = Iir.iir ~channels:4 in
       let w =
         Iir.workload (Iir.random_signal ~seed:3 (4 * Iir.points_per_channel))
       in
       let compiled = Fast_interp.compile ip in
       Test.make ~name:"interp-fast iir (4 channels)"
         (Staged.stage (fun () -> ignore (Fast_interp.run compiled w)))) ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] ->
            Fmt.pr "  %-34s %12.1f ns/run@." name t;
            metric ~name:("micro." ^ name) ~value:t ~unit_label:"ns/run"
          | Some _ | None -> Fmt.pr "  %-34s (no estimate)@." name)
        results)
    tests

let targets =
  [ ("table-1.1", table_1_1);
    ("table-6.1", table_6_1);
    ("table-6.2", table_6_2);
    ("table-6.3", table_6_3);
    ("figure-2", figure_2);
    ("figure-2.4", figure_2_4);
    ("figure-4", figure_4);
    ("figure-6.1", figure_6_1);
    ("figure-6.2", figure_6_2);
    ("figure-6.3", figure_6_3);
    ("figure-6.4", figure_6_4);
    ("combined", combined);
    ("ablation-ports", ablation_ports);
    ("ablation-registers", ablation_registers);
    ("ablation-width", ablation_width);
    ("plan", plan_target);
    ("micro", micro) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* validate the whole command line before running anything: a typo'd
     target used to surface only after the (expensive) targets before
     it had already run *)
  match Uas_core.Cli.parse ~available:(List.map fst targets) args with
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit 1
  | Ok o ->
    if o.Uas_core.Cli.o_version then begin
      Fmt.pr "%s@." Uas_runtime.Build_info.version_string;
      exit 0
    end;
    (* a malformed UAS_JOBS, UAS_FAULT or UAS_INTERP fails up front,
       not as a backtrace out of the first pool dispatch (or a silent
       tier fallback) *)
    (match Uas_runtime.Parallel.default_jobs_result () with
    | Ok _ -> ()
    | Error m ->
      Fmt.epr "%s@." m;
      exit 1);
    (match Uas_runtime.Fault.env_error () with
    | None -> ()
    | Some m ->
      Fmt.epr "%s: %s@." Uas_runtime.Fault.env_var m;
      exit 1);
    (match Fast_interp.env_tier_error () with
    | None -> ()
    | Some m ->
      Fmt.epr "%s@." m;
      exit 1);
    (match o.Uas_core.Cli.o_fault with
    | None -> ()
    | Some plan -> (
      match Uas_runtime.Fault.arm plan with
      | Ok () -> ()
      | Error m ->
        Fmt.epr "--fault: %s@." m;
        exit 1));
    (* the persistent artifact store: --cache DIR, or UAS_CACHE; an
       unopenable directory is a user error, not a degradation *)
    (match
       match o.Uas_core.Cli.o_cache with
       | Some d -> Some d
       | None -> Sys.getenv_opt Uas_runtime.Store.env_var
     with
    | None -> ()
    | Some dir -> (
      match Uas_runtime.Store.open_dir dir with
      | Ok s -> Uas_runtime.Store.install s
      | Error m ->
        Fmt.epr "--cache: %s@." m;
        exit 1));
    if o.Uas_core.Cli.o_cache_verify then Uas_runtime.Store.set_verify true;
    jobs := o.Uas_core.Cli.o_jobs;
    validate := o.Uas_core.Cli.o_validate;
    exact := o.Uas_core.Cli.o_exact;
    task_timeout := o.Uas_core.Cli.o_task_timeout;
    retries := o.Uas_core.Cli.o_retries;
    (match o.Uas_core.Cli.o_interp with
    | Some tier -> Fast_interp.set_default_tier tier
    | None -> ());
    (* --json embeds the span/counter breakdown, so it implies the
       instrumentation --timings turns on *)
    if o.Uas_core.Cli.o_timings || o.Uas_core.Cli.o_json <> None then
      Instrument.set_enabled true;
    let traj =
      Trajectory.make
        ~interp_tier:(Fast_interp.tier_name (Fast_interp.default_tier ()))
        ~jobs:o.Uas_core.Cli.o_jobs ()
    in
    trajectory := Some traj;
    let requested =
      match o.Uas_core.Cli.o_targets with
      | [] -> List.map fst targets
      | names -> names
    in
    List.iter
      (fun name ->
        let (), wall_s = Trajectory.time (List.assoc name targets) in
        Trajectory.add_target traj ~name ~wall_s)
      requested;
    if o.Uas_core.Cli.o_cache_warm then begin
      (* the warm leg: drop the in-process table memo so the second
         pass really goes through the persistent store, and silence
         the trajectory refs so metrics/plans/gaps/incidents are not
         recorded twice — only the "<target> (warm)" wall-clock rows
         land in the document *)
      rows_cache := None;
      trajectory := None;
      List.iter
        (fun name ->
          let (), wall_s = Trajectory.time (List.assoc name targets) in
          Trajectory.add_target traj ~name:(name ^ " (warm)") ~wall_s)
        requested
    end;
    if o.Uas_core.Cli.o_timings then begin
      header "timings";
      Fmt.pr "%a" Instrument.pp_summary ()
    end;
    (match o.Uas_core.Cli.o_json with
    | Some file -> Trajectory.write_file traj file
    | None -> ());
    (* hit rates and latency on stderr, so clean stdout stays
       byte-identical to the committed goldens *)
    match Uas_runtime.Store.installed () with
    | Some s -> Fmt.epr "%a@." Uas_runtime.Store.pp_stats s
    | None -> ()
