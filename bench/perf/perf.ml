(* perf.exe — the repository benchmark.

     perf.exe run --workload W --seed N --seconds S --trace 0|1
                  [--trace-file FILE] [--nimbled PATH] [--smoke]
     perf.exe compare PARENT_RUN... -- CHANGE_RUN...

   [run] measures one workload (see README.md) and prints a report, then
   the results object as its last line: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  It exits 1
   when any output check fails and 2 on a usage error.  Run it from the
   repository root: it reads BENCHMARK.json and ci/goldens/ there and
   writes its scratch files under .perf/. *)

open Perf_lib
module C = Common

let spec_file = "BENCHMARK.json"

let usage () =
  prerr_endline
    "usage: perf.exe run --workload NAME --seed N --seconds S --trace 0|1 \
     [--trace-file FILE] [--nimbled PATH] [--smoke]\n\
    \       perf.exe compare PARENT_RUN... -- CHANGE_RUN...";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

(* Settings that would change what the library computes are refused, so
   a measurement is always of the default configuration. *)
let refused_env = [ "UAS_FAULT"; "UAS_INTERP"; "UAS_JOBS"; "UAS_CACHE" ]

let workloads =
  [ ("sweep-cold", Inproc.sweep_cold);
    ("plan-cold", Inproc.plan_cold);
    ("warm-rerun", Inproc.warm_rerun);
    ("daemon-estimate", Daemon.run) ]

(* ---- metrics ---- *)

(* req_p90_ms must have ten samples above it, except in a smoke run
   and on a workload that makes one request per pass.  There it is the
   nearest-rank p90 of the few requests there are, but never the
   slowest one, so a single disturbed pass cannot set it. *)
let e2e ~smoke ~factor (acc : C.acc) =
  let med xs = factor *. Stats.median xs in
  let p90 =
    match Stats.percentile ~p:90.0 acc.C.reqs with
    | Ok v -> factor *. v
    | Error m ->
      if not (smoke || acc.C.few_requests) then failwith ("req_p90_ms: " ^ m);
      let a = Stats.sorted acc.C.reqs in
      let n = Array.length a in
      factor *. a.(max 0 (min (Stats.rank ~p:90.0 n) (n - 1) - 1))
  in
  let rss_kb =
    match acc.C.peak_rss_kb with Some kb -> Some kb | None -> C.vm_hwm_kb "self"
  in
  [ ("setup_s", med acc.C.setups);
    ("pass_s", med acc.C.passes);
    ("req_p50_ms", med acc.C.reqs);
    ("req_p90_ms", p90);
    ("peak_rss_mb", float_of_int (Option.value ~default:0 rss_kb) /. 1024.0) ]

let span_stats spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let n, tot, mx = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.Trace.name) in
      let d = 1000.0 *. Trace.dur s in
      Hashtbl.replace tbl s.Trace.name (n + 1, tot +. d, Float.max mx d))
    spans;
  tbl

let ratio a b = if b > 0.0 then a /. b else 0.0

let per_layer (acc : C.acc) (spans : Trace.span list) =
  let np = float_of_int (max 1 (List.length acc.C.traced_passes)) in
  let st = span_stats spans in
  let calls n = match Hashtbl.find_opt st n with Some (c, _, _) -> float_of_int c | None -> 0.0 in
  let ms n = match Hashtbl.find_opt st n with Some (_, t, _) -> t | None -> 0.0 in
  let max_ms n = match Hashtbl.find_opt st n with Some (_, _, m) -> m | None -> 0.0 in
  let transforms =
    Hashtbl.fold
      (fun name (c, t, _) (cs, ts) ->
        if String.length name > 10 && String.sub name 0 10 = "transform." then
          (cs + c, ts +. t)
        else (cs, ts))
      st (0, 0.0)
  in
  let get = C.get acc in
  let per_pass v = v /. np in
  let squash = ms "transform.squash" and jam = ms "transform.jam" in
  let hits = get "runtime.store.hits" and misses = get "runtime.store.misses" in
  let bad = get "runtime.store.bad" in
  let pass_spans = List.filter (fun (s : Trace.span) -> s.Trace.name = "pass") spans in
  let coverage =
    List.fold_left
      (fun m (p : Trace.span) ->
        let tops =
          List.filter_map
            (fun (s : Trace.span) ->
              if s.Trace.parent = p.Trace.id then Some (s.Trace.t0, s.Trace.t1) else None)
            spans
        in
        Float.min m (Trace.coverage ~t0:p.Trace.t0 ~t1:p.Trace.t1 tops))
      1.0 pass_spans
  in
  let overhead =
    match (acc.C.traced_passes, acc.C.passes) with
    | [], _ | _, [] -> 0.0
    | t, u when pass_spans <> [] -> Stats.median t /. Stats.median u
    | _ -> 0.0
  in
  [ ("dfg.schedule.calls", per_pass (calls "dfg.schedule"));
    ("dfg.schedule.ms", per_pass (ms "dfg.schedule"));
    ("dfg.schedule.max_ms", max_ms "dfg.schedule");
    ("dfg.build.ms", per_pass (ms "dfg.build"));
    ("transform.calls", per_pass (float_of_int (fst transforms)));
    ("transform.ms", per_pass (snd transforms));
    ("transform.squash_ms", per_pass squash);
    ("transform.jam_ms", per_pass jam);
    ("transform.prefix_ms", per_pass (snd transforms -. squash -. jam));
    ("transform.failed", per_pass (get "transform.failed"));
    ("core.plan.candidates", per_pass (get "core.plan.candidates"));
    ("core.plan.distinct_programs", per_pass (get "core.plan.distinct_programs"));
    ( "core.plan.unique_ratio",
      ratio (get "core.plan.distinct_programs") (get "core.plan.candidates") );
    ("pass.canonical_text.ms", per_pass (ms "pass.canonical_text"));
    ("pass.cu.hit_ratio", ratio (get "cu.hits") (get "cu.hits" +. get "cu.misses"));
    ("analysis.loop_nest.ms", per_pass (ms "analysis.loop_nest"));
    ("hw.estimate.calls", per_pass (calls "hw.estimate"));
    ("hw.estimate.ms", per_pass (ms "hw.estimate"));
    ("ir.interp_compile.ms", per_pass (ms "ir.interp_compile"));
    ("ir.interp_run.calls", per_pass (calls "ir.interp_run"));
    ("ir.interp_run.ms", per_pass (ms "ir.interp_run"));
    ("bench_suite.check.ms", per_pass (ms "bench_suite.check"));
    ("runtime.store.hits", per_pass hits);
    ("runtime.store.misses", per_pass misses);
    ("runtime.store.bad", per_pass bad);
    ("runtime.store.writes", per_pass (get "runtime.store.writes"));
    ("runtime.store.hit_ratio", ratio hits (hits +. misses +. bad));
    ("runtime.store.read_ms", per_pass (get "runtime.store.read_ms"));
    ("runtime.store.write_ms", per_pass (get "runtime.store.write_ms"));
    ("runtime.pool.busy_ms", per_pass (get "runtime.pool.busy_ms"));
    ("runtime.pool.wait_ms", ratio (get "pool.wait_sum_ms") (get "pool.tasks"));
    ("runtime.pool.straggler_ms", per_pass (get "runtime.pool.straggler_ms"));
    ("runtime.pool.balance", ratio (get "runtime.pool.busy_ms") (get "pool.capacity_ms"));
    ("service.rtt_ms", get "service.rtt_ms");
    ("service.execute_ms", get "service.execute_ms");
    ("service.overhead_ms", get "service.overhead_ms");
    ("service.queue_max", get "service.queue_max");
    ("service.shed", get "service.shed");
    ("service.timed_out", get "service.timed_out");
    ("service.protocol_errors", get "service.protocol_errors");
    ("trace.overhead_ratio", overhead);
    ("trace.coverage", if pass_spans = [] then 0.0 else coverage);
    ("cell.max_ms", Float.max (max_ms "cell") (max_ms "candidate")) ]

(* ---- the traced breakdown ---- *)

let breakdown (acc : C.acc) spans =
  let tops = List.filter (fun (s : Trace.span) -> s.Trace.name = "cell" || s.Trace.name = "candidate") spans in
  (match List.sort (fun a b -> Float.compare (Trace.dur b) (Trace.dur a)) tops with
  | s :: _ -> C.note acc "slowest cell: %s %.1f ms" s.Trace.req (1000.0 *. Trace.dur s)
  | [] -> ());
  let cells = List.filter (fun (s : Trace.span) -> s.Trace.name = "cell") spans in
  let total = List.fold_left (fun a s -> a +. Trace.dur s) 0.0 cells in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let jam =
    List.fold_left
      (fun a (s : Trace.span) -> if contains "/jam(" s.Trace.req then a +. Trace.dur s else a)
      0.0 cells
  in
  if total > 0.0 then
    C.note acc "jam cells: %.1f%% of cell time (%.0f of %.0f ms)" (100.0 *. jam /. total)
      (1000.0 *. jam) (1000.0 *. total);
  let traced = List.fold_left ( +. ) 0.0 acc.C.traced_passes in
  if traced > 0.0 then begin
    C.note acc "self time per layer (ms per traced pass, share of the pool's capacity):";
    List.iter
      (fun (name, self) ->
        if name <> "pass" then
          C.note acc "  %-24s %10.2f %5.1f%%" name
            (1000.0 *. self /. float_of_int (List.length acc.C.traced_passes))
            (100.0 *. self /. (traced *. float_of_int C.jobs)))
      (Trace.self_times spans)
  end

(* ---- run ---- *)

(* A run that has not finished after this long (a hung daemon, a
   machine many times slower than usual) is stopped, its children
   killed, and fails without a result. *)
let watchdog_s = 170.0

let start_watchdog () =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay watchdog_s;
         prerr_endline (Printf.sprintf "perf: run exceeded %.0f s; stopped" watchdog_s);
         Daemon.kill_all ();
         Unix._exit 1)
       ())

let print_dist name unit_ xs =
  match xs with
  | [] -> ()
  | _ ->
    let q1, m, q3 = Stats.quartiles xs in
    Printf.printf "%-12s %12.4f %-3s median of %d  [q1 %.4f, q3 %.4f]\n" name m unit_
      (List.length xs) q1 q3

let run args =
  List.iter
    (fun v ->
      if Option.is_some (Sys.getenv_opt v) then
        die "%s is set; unset it to measure the default configuration" v)
    refused_env;
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and trace_file = ref None and smoke = ref false in
  let nimbled = ref "_build/default/bin/nimbled.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> die "--trace expects 0 or 1");
      parse rest
    | "--trace-file" :: v :: rest -> trace_file := Some v; parse rest
    | "--nimbled" :: v :: rest -> nimbled := v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | a :: _ -> die "unknown argument %s" a
  in
  parse args;
  let name, seed, seconds, traced =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some s, Some t, Some tr when t > 0.0 -> (w, s, t, tr)
    | _ -> usage ()
  in
  let spec = match Results.load_spec spec_file with Ok s -> s | Error m -> die "%s" m in
  let body =
    match List.assoc_opt name workloads with
    | Some f when List.mem name spec.Results.workloads -> f
    | _ -> die "unknown workload %s; known: %s" name (String.concat ", " (List.map fst workloads))
  in
  if not (Sys.file_exists "ci/goldens") then die "run from the repository root";
  start_watchdog ();
  let work = Printf.sprintf ".perf/run-%d" (Unix.getpid ()) in
  C.mkdir_p work;
  let tr = if traced then Some (Trace.create ()) else None in
  let ctx =
    { C.seed; seconds; smoke = !smoke; trace = tr; nimbled = !nimbled; work;
      calib = Calib.create () }
  in
  let acc = C.new_acc () in
  print_endline (Results.header ~workload:name ~seed ~seconds ~trace:traced);
  let outcome =
    try
      body ctx acc;
      Ok ()
    with e -> Error (Printexc.to_string e)
  in
  Daemon.kill_all ();
  Uas_runtime.Store.uninstall ();
  C.rm_rf work;
  (match outcome with
  | Ok () -> ()
  | Error m ->
    prerr_endline ("perf: " ^ name ^ ": " ^ m);
    exit 1);
  let metrics =
    try
      match tr with
      | None -> e2e ~smoke:ctx.C.smoke ~factor:(Calib.factor ctx.C.calib) acc
      | Some tr ->
        let spans = Trace.spans tr in
        let file =
          Option.value !trace_file
            ~default:(Printf.sprintf ".perf/trace-%s-%d.json" name seed)
        in
        Trace.write_chrome tr file;
        C.note acc "trace: %d spans written to %s" (List.length spans) file;
        breakdown acc spans;
        let layers = per_layer acc spans in
        if acc.C.traced_passes <> [] then begin
          let cov = List.assoc "trace.coverage" layers in
          C.check acc (cov >= 0.9) "top-level spans cover %.1f%% of a traced pass (need 90%%)"
            (100.0 *. cov);
          C.note acc "tracing overhead: traced passes take %.3fx the untraced ones"
            (List.assoc "trace.overhead_ratio" layers)
        end;
        layers
    with Failure m ->
      prerr_endline ("perf: " ^ name ^ ": " ^ m);
      exit 1
  in
  Printf.printf "workload %s: %d operations, %d failed\n" name acc.C.attempted acc.C.failed;
  print_dist "calibration" "ms" ctx.C.calib.Calib.samples;
  Printf.printf "raw times below; metrics scale them by %.4f\n" (Calib.factor ctx.C.calib);
  print_dist "setup" "s" acc.C.setups;
  print_dist "pass" "s" acc.C.passes;
  print_dist "traced pass" "s" acc.C.traced_passes;
  print_dist "request" "ms" acc.C.reqs;
  if acc.C.passes <> [] then
    print_endline
      ("pass times (s, in order): "
      ^ String.concat " " (List.rev_map (Printf.sprintf "%.3f") acc.C.passes));
  List.iter print_endline (List.rev acc.C.notes);
  List.iter (fun p -> print_endline ("FAILED: " ^ p)) (List.rev acc.C.problems);
  List.iter
    (fun (k, v) ->
      match Results.find_metric spec k with
      | Some m -> Printf.printf "%-28s %14.4f %s\n" k v m.Results.m_unit
      | None -> ())
    metrics;
  let wanted = if traced then spec.Results.per_layer else spec.Results.end_to_end in
  let missing =
    List.filter (fun (m : Results.metric) -> not (List.mem_assoc m.Results.m_name metrics)) wanted
  in
  if missing <> [] then begin
    prerr_endline
      ("perf: metrics declared but not measured: "
      ^ String.concat ", " (List.map (fun (m : Results.metric) -> m.Results.m_name) missing));
    exit 1
  end;
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  if bad <> [] then begin
    prerr_endline ("perf: non-finite metric(s): " ^ String.concat ", " (List.map fst bad));
    exit 1
  end;
  let line =
    Results.render spec
      { Results.correct = acc.C.failed = 0;
        attempted = acc.C.attempted;
        failed = acc.C.failed;
        metrics }
  in
  match line with
  | Ok l ->
    print_endline l;
    exit (if acc.C.failed = 0 then 0 else 1)
  | Error m ->
    prerr_endline ("perf: " ^ m);
    exit 1

let compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> usage ()
  in
  let a, b = split [] args in
  if a = [] || b = [] then usage ();
  let spec = match Results.load_spec spec_file with Ok s -> s | Error m -> die "%s" m in
  let load p = match Results.load_run p with Ok r -> r | Error m -> die "%s" m in
  let lines, regressed =
    Compare.report spec ~parent:(List.map load a) ~change:(List.map load b)
  in
  List.iter print_endline lines;
  exit (if regressed then 1 else 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "compare" :: args -> compare args
  | [ _; "calibrate" ] -> Calib.child_main ()
  | _ -> usage ()
