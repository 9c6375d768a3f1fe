(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus Bechamel wall-clock microbenchmarks of the
   compiler passes themselves and two ablations of the hardware model.
   `dune exec bench/main.exe -- --help` lists the targets and flags. *)

open Uas_ir
module S = Uas_bench_suite
module E = Uas_core.Experiments
module N = Uas_core.Nimble
module P = Uas_core.Planner
module Instrument = Uas_runtime.Instrument
module Trajectory = Uas_runtime.Trajectory
module Session = Uas_cli.Session

let header title = Fmt.pr "@.==== %s ====@." title

(* The quick-synthesis report of one version of a nest on [target]:
   the version's pass pipeline, as every sweep cell runs it.  A version
   that fails its pipeline ends the run like nimblec does. *)
let report ?target p ~outer_index ~inner_index v =
  match N.run_version_cu ?target p ~outer_index ~inner_index v with
  | Ok (_, _, r) -> r
  | Error d ->
    Fmt.epr "bench: %a@." Uas_pass.Diag.pp d;
    exit 1

let benchmark_report ?target (b : S.Registry.benchmark) v =
  report ?target b.S.Registry.b_program ~outer_index:b.S.Registry.b_outer_index
    ~inner_index:b.S.Registry.b_inner_index v

(* One pass over the requested targets.  [traj] is the perf-trajectory
   document the pass records into: [None] on the --cache-warm leg, so
   nothing is recorded twice.  [rows] is Table 6.2, the expensive part
   (50 transformed programs, each replayed in the interpreter):
   computed at most once per pass, fanned out over the domain pool, and
   shared by every target that reads it. *)
type run = {
  session : Session.t;
  ctx : Uas_runtime.Ctx.t;
  traj : Trajectory.t option;
  rows : E.bench_row list Lazy.t;
}

let incident traj ~site ~cell ~message =
  Option.iter (fun t -> Trajectory.add_incident t ~site ~cell ~message) traj

(* Degraded cells and skips land in the trajectory's incident log. *)
let table_rows (session : Session.t) ctx traj =
  let r =
    E.table_6_2 ~ctx ~verify:true ~validate:session.Session.validate
      ?jobs:session.Session.jobs
      ?timeout_s:session.Session.task_timeout ()
  in
  List.iter
    (fun (row : E.bench_row) ->
      let bench = row.E.br_benchmark.S.Registry.b_name in
      List.iter
        (fun (c : E.cell) ->
          List.iter
            (fun d ->
              incident traj ~site:"sweep"
                ~cell:(bench ^ "/" ^ N.version_name c.E.c_version)
                ~message:(Uas_pass.Diag.to_string d))
            c.E.c_incidents)
        row.E.br_cells;
      List.iter
        (fun (s : E.skip) ->
          incident traj ~site:"sweep"
            ~cell:(bench ^ "/" ^ N.version_name s.E.s_version)
            ~message:("skipped: " ^ Uas_pass.Diag.to_string s.E.s_diag))
        row.E.br_skipped)
    r;
  r

let make_run session ctx traj =
  { session; ctx; traj; rows = lazy (table_rows session ctx traj) }

(* --- Table 1.1 --- *)

let table_1_1 run =
  header "Table 1.1: program execution time in loops";
  Fmt.pr "%-28s %8s %12s %10s   %s@." "benchmark" "# loops" "# loops>1%"
    "total %" "(paper: loops/hot/%)";
  List.iter
    (fun (r : S.Profile.row) ->
      let pl, ph, pp = r.S.Profile.paper in
      Fmt.pr "%-28s %8d %12d %9.0f%%   (%d/%d/%d%%)@." r.S.Profile.row_app
        r.S.Profile.loops r.S.Profile.hot_loops r.S.Profile.hot_percent pl ph
        pp)
    (S.Profile.table ~ctx:run.ctx ())

(* --- Table 6.1 --- *)

let table_6_1 () =
  header "Table 6.1: benchmark description";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      Fmt.pr "%-14s %s@." b.S.Registry.b_name b.S.Registry.b_description)
    (S.Registry.all ())

(* --- Figure 2.1-2.3: the motivating example, transformed --- *)

(* The harness transforms fixed nests that are legal at the factors it
   uses: a failure here is a bug, reported with its reason. *)
let squash p nest ~ds =
  match Uas_transform.Squash.apply p nest ~ds with
  | Ok out -> out
  | Error e -> Fmt.failwith "squash(%d): %a" ds Uas_transform.Squash.pp_error e

let jam p nest ~ds =
  match Uas_transform.Unroll_and_jam.apply p nest ~ds with
  | Ok out -> out
  | Error v -> Fmt.failwith "jam(%d): %a" ds Uas_analysis.Legality.pp_verdict v

let figure_2 () =
  header "Figure 2.1-2.3: the f/g loop nest, original / jam(2) / squash(2)";
  let p = S.Simple.fg_loop ~m:4 ~n:4 in
  Fmt.pr "--- original (Figure 2.1) ---@.%a@." Pp.pp_program p;
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let jam = jam p nest ~ds:2 in
  Fmt.pr "--- unroll-and-jam by 2 (Figure 2.2) ---@.%a@." Pp.pp_program
    jam.Uas_transform.Unroll_and_jam.program;
  let sq = squash p nest ~ds:2 in
  Fmt.pr "--- unroll-and-squash by 2 (Figure 2.3) ---@.%a@." Pp.pp_program
    sq.Uas_transform.Squash.program;
  (* the headline claim: same throughput as jam, without doubling ops *)
  let ii v =
    (report p ~outer_index:"i" ~inner_index:"j" v).Uas_hw.Estimate.r_ii
  in
  Fmt.pr "original:  II=%d (non-pipelined schedule)@." (ii N.Original);
  Fmt.pr "jam(2):    II=%d, operators x2@." (ii (N.Jammed 2));
  Fmt.pr "squash(2): II=%d, operators unchanged@." (ii (N.Squashed 2))

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

let table_6_2 run =
  header "Table 6.2";
  Fmt.pr "%a@." E.pp_table_6_2 (Lazy.force run.rows)

let table_6_3 run =
  header "Table 6.3";
  Fmt.pr "%a@." E.pp_table_6_3 (Lazy.force run.rows)

let figure_6_1 run =
  header "Figure 6.1: speedup factor";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"speedup vs original")
    (E.figure_6_1 (Lazy.force run.rows))

let figure_6_2 run =
  header "Figure 6.2: area increase factor";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"area vs original")
    (E.figure_6_2 (Lazy.force run.rows))

let figure_6_3 run =
  header "Figure 6.3: efficiency factor (speedup/area) — higher is better";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"speedup/area")
    (E.figure_6_3 (Lazy.force run.rows))

let figure_6_4 run =
  header "Figure 6.4: operators as percent of the area";
  Fmt.pr "%a@."
    (E.pp_series ~unit_label:"% of area")
    (E.figure_6_4 (Lazy.force run.rows))

(* --- ablations --- *)

let ablation_ports () =
  header "Ablation: memory ports (II of squash(8) per benchmark)";
  Fmt.pr "%-14s %8s %8s %8s@." "benchmark" "1 port" "2 ports" "4 ports";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let ii target =
        (benchmark_report ~target b (N.Squashed 8)).Uas_hw.Estimate.r_ii
      in
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
      let area target =
        (benchmark_report ~target b (N.Squashed 16)).Uas_hw.Estimate.r_area_rows
      in
      Fmt.pr "%-14s %12d %12d@." b.S.Registry.b_name
        (area Uas_hw.Datapath.default)
        (area Uas_hw.Datapath.packed_registers))
    (S.Registry.all ())

(* --- the §2 composition: jam to fill the datapath, squash on top --- *)

let combined run =
  let s = run.session in
  header
    "Combined jam+squash (§2: \"quadruples the performance but only \
     doubles the area\")";
  Fmt.pr "%-18s %6s %8s %9s %8s %10s@." "version" "II" "area" "speedup"
    "areaX" "efficiency";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      Fmt.pr "@.%s@." b.S.Registry.b_name;
      let row =
        E.run_benchmark ~ctx:run.ctx ~verify:false ~validate:s.Session.validate
          ~versions:
            [ N.Original; N.Jammed 2; N.Squashed 4; N.Combined (2, 2);
              N.Combined (2, 4); N.Combined (4, 2) ]
          ?jobs:s.Session.jobs ?timeout_s:s.Session.task_timeout b
      in
      (match
         List.find_opt (fun c -> c.E.c_version = N.Original) row.E.br_cells
       with
      | None -> ()
      | Some { E.c_report = base; _ } ->
        List.iter
          (fun (c : E.cell) ->
            let r = c.E.c_report in
            Fmt.pr "%-18s %6d %8d %9.2f %8.2f %10.2f@."
              (N.version_name c.E.c_version)
              r.Uas_hw.Estimate.r_ii r.Uas_hw.Estimate.r_area_rows
              (Uas_hw.Estimate.speedup ~base r)
              (Uas_hw.Estimate.area_factor ~base r)
              (Uas_hw.Estimate.efficiency ~base r))
          row.E.br_cells);
      List.iter
        (fun (c : E.cell) ->
          List.iter
            (fun d ->
              Fmt.pr "degraded: %-12s — %a@."
                (N.version_name c.E.c_version)
                Uas_pass.Diag.pp d;
              incident run.traj ~site:"combined"
                ~cell:(b.S.Registry.b_name ^ "/" ^ N.version_name c.E.c_version)
                ~message:(Uas_pass.Diag.to_string d))
            c.E.c_incidents)
        row.E.br_cells;
      List.iter
        (fun (sk : E.skip) ->
          Fmt.pr "skipped: %-12s — %a@."
            (N.version_name sk.E.s_version)
            Uas_pass.Diag.pp sk.E.s_diag)
        row.E.br_skipped)
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
      let aware = Uas_hw.Bitwidth.operator_area ~entry detail ~roms in
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
          | Some base -> (Uas_hw.Estimate.speedup ~base r, P.ratio ~base r)
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

let plan_target run =
  let s = run.session in
  header "Transform plans: rewrite sequences ending in squash, ranked by \
          the cost model";
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let probe =
        if s.Session.validate then Some b.S.Registry.b_workload else None
      in
      let plan =
        P.plan ~ctx:run.ctx ?jobs:s.Session.jobs ?validate:probe
          ?timeout_s:s.Session.task_timeout b.S.Registry.b_program
          ~outer_index:b.S.Registry.b_outer_index
          ~inner_index:b.S.Registry.b_inner_index
          ~benchmark:b.S.Registry.b_name
      in
      Fmt.pr "%a@." P.pp plan;
      List.iter
        (fun (row : P.row) ->
          List.iter
            (fun d ->
              incident run.traj ~site:"plan"
                ~cell:(plan.P.p_benchmark ^ "/" ^ row.P.r_candidate.P.c_label)
                ~message:(Uas_pass.Diag.to_string d))
            row.P.r_incidents)
        plan.P.p_rows;
      match run.traj with
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

let micro run =
  header "Microbenchmarks: wall-clock time of the compiler passes";
  (* NB: [open Bechamel] would shadow the [S] alias with Bechamel.S *)
  let module Sj = Uas_bench_suite.Skipjack in
  let open Bechamel in
  let p = Sj.skipjack_mem ~m:16 in
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let tests =
    [ Test.make ~name:"squash(2) skipjack"
        (Staged.stage (fun () -> ignore (squash p nest ~ds:2)));
      Test.make ~name:"squash(8) skipjack"
        (Staged.stage (fun () -> ignore (squash p nest ~ds:8)));
      Test.make ~name:"jam(2) skipjack"
        (Staged.stage (fun () -> ignore (jam p nest ~ds:2)));
      Test.make ~name:"jam(8) skipjack"
        (Staged.stage (fun () -> ignore (jam p nest ~ds:8)));
      Test.make ~name:"estimate skipjack kernel"
        (Staged.stage (fun () ->
             ignore (report p ~outer_index:"i" ~inner_index:"j" N.Pipelined)));
      Test.make ~name:"dfg build skipjack body"
        (Staged.stage (fun () ->
             ignore
               (Uas_dfg.Build.build ~inner_index:"j"
                  nest.Uas_analysis.Loop_nest.inner_body)));
      Test.make ~name:"legality check (ds=8)"
        (Staged.stage (fun () -> ignore (Uas_analysis.Legality.check nest ~ds:8)));
      (* Table 6.2's largest II search: 1,105 nodes, 128 memory ops; the
         greedy placement spends its whole bump budget at the lower
         bound before the exact search certifies that II *)
      (let jammed = (jam p nest ~ds:16).Uas_transform.Unroll_and_jam.program in
       let g =
         (Uas_hw.Estimate.kernel_detail jammed ~index:"j").Uas_dfg.Build.d_graph
       in
       let cfg = Uas_hw.Datapath.(sched_config default) in
       Test.make ~name:"schedule skipjack jam(16)"
         (Staged.stage (fun () ->
              ignore (Uas_dfg.Sched.modulo_schedule_note ~cfg g))));
      (* the compiled interpreter against its reference oracle, on an
         integer kernel (Skipjack) and a float one (IIR); the ref/fast
         ns-per-run pairs land in the --json trajectory as the recorded
         speedup *)
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
            Option.iter
              (fun traj ->
                Trajectory.add_metric traj ~name:("micro." ^ name) ~value:t
                  ~unit_label:"ns/run")
              run.traj
          | Some _ | None -> Fmt.pr "  %-34s (no estimate)@." name)
        results)
    tests

(* Each target with whether it reads the store: a target that reads
   none — a [plain] one, or [micro] — would only repeat itself on the
   --cache-warm leg, so that leg skips it. *)
let stored f = (f, true)
let plain f = ((fun (_ : run) -> f ()), false)

let targets =
  [ ("table-1.1", stored table_1_1);
    ("table-6.1", plain table_6_1);
    ("table-6.2", stored table_6_2);
    ("table-6.3", stored table_6_3);
    ("figure-2", plain figure_2);
    ("figure-2.4", plain figure_2_4);
    ("figure-4", plain figure_4);
    ("figure-6.1", stored figure_6_1);
    ("figure-6.2", stored figure_6_2);
    ("figure-6.3", stored figure_6_3);
    ("figure-6.4", stored figure_6_4);
    ("combined", stored combined);
    ("ablation-ports", plain ablation_ports);
    ("ablation-registers", plain ablation_registers);
    ("ablation-width", plain ablation_width);
    ("plan", stored plan_target);
    ("micro", (micro, false)) ]

let prog = "bench"

let main session json cache_warm requested =
  (* --json embeds the span/counter breakdown, so it records into a sink
     as --timings does *)
  let traced =
    { session with Session.timings = session.Session.timings || json <> None }
  in
  let ctx = Session.open_store ~prog session (Session.start ~prog traced) in
  let traj = Trajectory.make ~ctx ~jobs:session.Session.jobs () in
  let requested =
    match requested with [] -> List.map fst targets | names -> names
  in
  let pass run suffix names =
    List.iter
      (fun name ->
        let (), wall_s =
          Trajectory.time (fun () -> fst (List.assoc name targets) run)
        in
        Trajectory.add_target traj ~name:(name ^ suffix) ~wall_s)
      names
  in
  pass (make_run session ctx (Some traj)) "" requested;
  (* the warm leg: a fresh run drops the in-process Table 6.2, so the
     second pass really goes through the persistent store, and records
     only the "<target> (warm)" wall-clock rows of the targets that read
     the store *)
  if cache_warm then
    pass (make_run session ctx None) " (warm)"
      (List.filter (fun name -> snd (List.assoc name targets)) requested);
  if session.Session.timings then begin
    header "timings";
    Fmt.pr "%a" Instrument.pp_summary ctx.trace
  end;
  Option.iter
    (fun file ->
      Session.write_output ~prog ~what:"--json" file
        (Trajectory.to_json traj ^ "\n"))
    json;
  (* hit rates and latency on stderr, so clean stdout stays
     byte-identical to the committed goldens *)
  Session.report_store ctx

let () =
  let open Cmdliner in
  let targets_arg =
    let names = List.map (fun (name, _) -> (name, name)) targets in
    Arg.(
      value
      & pos_all (enum names) []
      & info [] ~docv:"TARGET"
          ~doc:
            ("Each target is " ^ doc_alts_enum names
           ^ "; they run in the order given (default: all of them)."))
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the perf-trajectory document (per-target wall-clock, \
             microbenchmark metrics, span breakdown) to FILE")
  in
  let cache_warm_arg =
    Arg.(
      value & flag
      & info [ "cache-warm" ]
          ~doc:
            "Re-run every requested target that reads the store after \
             the cold pass, recording \"<target> (warm)\" wall-clock")
  in
  let info =
    Cmd.info prog ~version:Uas_runtime.Build_info.version_string
      ~doc:"Regenerate the tables and figures of the paper's evaluation"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ Session.term $ json_arg $ cache_warm_arg
            $ targets_arg)))
