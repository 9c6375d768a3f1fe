(* The Chapter 6 experiments: Table 6.2 (raw II / area / registers),
   Table 6.3 (normalized speedup / area / registers / efficiency) and
   the four derived figures, computed over the Table 6.1 benchmark
   suite.  Also verifies that every generated version still computes
   the host-reference outputs bit-for-bit — a check the paper could not
   make mechanically. *)

module Registry = Uas_bench_suite.Registry
module Estimate = Uas_hw.Estimate
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module Instrument = Uas_runtime.Instrument
module Ctx = Uas_runtime.Ctx
module Fault = Uas_runtime.Fault
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Sched = Uas_dfg.Sched

type cell = {
  c_version : Nimble.version;
  c_report : Estimate.report;
  c_verified : bool;  (** outputs match the host reference *)
  c_gap : (int * Sched.exact) option;
      (** always [None]; kept only for the frozen perf harness *)
  c_incidents : Diag.t list;
      (** non-fatal trouble the cell degraded around: rewrites rejected
          by translation validation, verification runs that went stuck
          or out of fuel — rendered as [degraded:] table footers *)
}

type skip = {
  s_version : Nimble.version;
  s_diag : Uas_pass.Diag.t;  (** why the version was not built *)
}

type bench_row = {
  br_benchmark : Registry.benchmark;
  br_cells : cell list;  (** built versions, in request order *)
  br_skipped : skip list;  (** versions rejected by a pass, in order *)
}

type normalized = {
  n_version : Nimble.version;
  n_speedup : float;
  n_area : float;
  n_registers : float;
  n_efficiency : float;  (** speedup / area *)
  n_operator_share : float;  (** operators as a fraction of area (Fig 6.4) *)
}

(* One (benchmark, version) cell: the version's pass pipeline
   (transform + quick synthesis) plus interpreter-replay verification —
   the independent unit of work the pool fans out.  Nothing here
   touches shared mutable state: each pipeline run builds its own
   compilation unit, the interpreter copies the workload's input
   arrays, and the benchmark record is only read.

   A verification run that goes wrong — stuck, out of fuel, an
   injected interpreter fault, outputs differing from the host
   reference — marks the cell unverified with an incident; it never
   aborts the sweep. *)
let build_cell ctx ?after ~validate ~verify
    (b : Registry.benchmark) (v : Nimble.version) : (cell, skip) result =
  let probe = if validate then Some b.Registry.b_workload else None in
  match
    Nimble.run_version_cu ~ctx ?after ?validate:probe
      b.Registry.b_program ~outer_index:b.Registry.b_outer_index
      ~inner_index:b.Registry.b_inner_index v
  with
  | Error d -> Error { s_version = v; s_diag = d }
  | Ok (cu, _, report) ->
    let incidents = ref (Cu.incidents cu) in
    let incident fmt =
      Fmt.kstr
        (fun m ->
          incidents := !incidents @ [ Diag.errorf ~pass:"verify" "%s" m ])
        fmt
    in
    let verified =
      (not verify)
      || Instrument.span ctx.Ctx.trace "pass.verify" (fun () ->
             match Registry.run ctx (Cu.compiled cu) b.Registry.b_workload with
             | result -> (
               match Registry.check_result b result with
               | Ok () -> true
               | Error m ->
                 incident "outputs differ from host reference: %s" m;
                 false)
             | exception Uas_ir.Interp.Stuck m ->
               incident "verification run stuck: %s" m;
               false
             | exception Uas_ir.Interp.Out_of_fuel ->
               incident "verification run out of fuel";
               false
             | exception (Fault.Injected _ as e) ->
               incident "%s" (Printexc.to_string e);
               false)
    in
    Ok
      { c_version = v;
        c_report = report;
        c_verified = verified;
        c_gap = None;
        c_incidents = !incidents }

(* Every requested (benchmark, version) cell as one flat pool fan-out,
   each in a fault scope named "<benchmark>/<version>"; a task the pool
   gives up on becomes a skipped cell.  The input-ordered results are
   regrouped benchmark-major. *)
let run_rows ?ctx ?(verify = true) ?(validate = false) ?jobs ?timeout_s
    ?after
    (benches : (Registry.benchmark * Nimble.version list) list) :
    bench_row list =
  let cells =
    Pass.fan_out ?ctx ?jobs ?timeout_s
      ~scope:(fun ((b : Registry.benchmark), v) ->
        b.Registry.b_name ^ "/" ^ Nimble.version_name v)
      ~failed:(fun (_, v) d -> Error { s_version = v; s_diag = d })
      (fun ctx (b, v) -> build_cell ctx ?after ~validate ~verify b v)
      (List.concat_map (fun (b, vs) -> List.map (fun v -> (b, v)) vs) benches)
  in
  let rec regroup cells = function
    | [] -> []
    | (b, vs) :: rest ->
      let n = List.length vs in
      let mine = List.filteri (fun i _ -> i < n) cells in
      { br_benchmark = b;
        br_cells = List.filter_map Result.to_option mine;
        br_skipped =
          List.filter_map (function Ok _ -> None | Error s -> Some s) mine }
      :: regroup (List.filteri (fun i _ -> i >= n) cells) rest
  in
  regroup cells benches

(** The depth-appropriate version set of a benchmark: the Table 6.2
    versions on a 2-deep kernel, flatten+squash on deeper nests. *)
let versions_of (b : Registry.benchmark) =
  Nimble.versions_for
    ~depth:
      (Option.value ~default:2
         (Uas_analysis.Loop_nest.depth_at b.Registry.b_program
            b.Registry.b_outer_index))

(** Run the full Table 6.2 sweep for one benchmark: the one-benchmark
    case of {!table_6_2}'s fan-out. *)
let run_benchmark ?ctx ?verify ?validate ?versions ?jobs ?timeout_s ?after
    (b : Registry.benchmark) : bench_row =
  let versions = Option.value versions ~default:(versions_of b) in
  List.hd
    (run_rows ?ctx ?verify ?validate ?jobs ?timeout_s ?after
       [ (b, versions) ])

(** Table 6.2 over the whole suite.  All (benchmark, version) cells —
    ~50 independent build+estimate+verify tasks — go through one flat
    pool fan-out, so the hot path scales with the core count instead of
    running strictly sequentially. *)
let table_6_2 ?ctx ?verify ?validate ?jobs ?timeout_s () : bench_row list =
  run_rows ?ctx ?verify ?validate ?jobs ?timeout_s
    (List.map (fun b -> (b, Nimble.paper_versions)) (Registry.all ()))

(** Normalize one benchmark row against its original version
    (Table 6.3). *)
let normalize (row : bench_row) : normalized list =
  let base =
    match
      List.find_opt (fun c -> c.c_version = Nimble.Original) row.br_cells
    with
    | Some c -> c.c_report
    | None -> invalid_arg "normalize: no original version"
  in
  List.map
    (fun c ->
      let r = c.c_report in
      { n_version = c.c_version;
        n_speedup = Estimate.speedup ~base r;
        n_area = Estimate.area_factor ~base r;
        n_registers =
          float_of_int r.Estimate.r_registers
          /. float_of_int (max 1 base.Estimate.r_registers);
        n_efficiency = Estimate.efficiency ~base r;
        n_operator_share = Estimate.operator_area_fraction r })
    row.br_cells

(* --- figure series: one (benchmark, per-version values) list each --- *)

type series = (string * (Nimble.version * float) list) list

let figure ~(value : normalized -> float) (rows : bench_row list) : series =
  List.map
    (fun row ->
      ( row.br_benchmark.Registry.b_name,
        List.map (fun n -> (n.n_version, value n)) (normalize row) ))
    rows

let figure_6_1 rows = figure ~value:(fun n -> n.n_speedup) rows
let figure_6_2 rows = figure ~value:(fun n -> n.n_area) rows
let figure_6_3 rows = figure ~value:(fun n -> n.n_efficiency) rows
let figure_6_4 rows = figure ~value:(fun n -> 100.0 *. n.n_operator_share) rows

(* --- Figure 2.4: operator usage over time, jam vs squash --- *)

type usage_cell = {
  u_time : int;
  u_operator : string;
  u_data_set : int option;  (** None = idle *)
}

(** The operator-usage timeline of Figure 2.4 for the f/g example:
    which data set occupies operator f and operator g at each cycle,
    under unroll-and-jam(2) and unroll-and-squash(2). *)
let figure_2_4 ~cycles : (string * usage_cell list) list =
  let squash =
    (* round-robin: at step t, f works on data set t mod 2 and g on
       (t-1) mod 2 — every slot busy *)
    List.concat
      (List.init cycles (fun t ->
           [ { u_time = t; u_operator = "f"; u_data_set = Some (t mod 2) };
             { u_time = t;
               u_operator = "g";
               u_data_set = (if t = 0 then None else Some ((t - 1) mod 2)) } ]))
  in
  let jam =
    (* both copies in lockstep: f0/g0 for set 1, f1/g1 for set 2, with
       the g units idle while f computes and vice versa (II = 2) *)
    List.concat
      (List.init cycles (fun t ->
           let phase = t mod 2 in
           [ { u_time = t; u_operator = "f0";
               u_data_set = (if phase = 0 then Some 0 else None) };
             { u_time = t; u_operator = "f1";
               u_data_set = (if phase = 0 then Some 1 else None) };
             { u_time = t; u_operator = "g0";
               u_data_set = (if phase = 1 then Some 0 else None) };
             { u_time = t; u_operator = "g1";
               u_data_set = (if phase = 1 then Some 1 else None) } ]))
  in
  [ ("unroll-and-jam(2)", jam); ("unroll-and-squash(2)", squash) ]

(* --- pretty-printed tables (consumed by bench/main.exe and the CLI) --- *)

(* The footers shared by the Table 6.2/6.3 printers: one
   "degraded: <version> — <diagnostic>" line per incident a cell
   recovered from, then one "skipped: <version> — <diagnostic>" line
   per version a pass rejected.  Both empty (and silent) when every
   version built cleanly — the clean table output is byte-identical to
   the pre-fault-tolerance printers. *)
let pp_degraded ppf (cells : cell list) =
  List.iter
    (fun c ->
      List.iter
        (fun d ->
          Fmt.pf ppf "  degraded: %-12s — %a@\n"
            (Nimble.version_name c.c_version)
            Uas_pass.Diag.pp d)
        c.c_incidents)
    cells

let pp_skipped ppf (skips : skip list) =
  List.iter
    (fun s ->
      Fmt.pf ppf "  skipped: %-12s — %a@\n"
        (Nimble.version_name s.s_version)
        Uas_pass.Diag.pp s.s_diag)
    skips

let pp_table_6_2 ppf (rows : bench_row list) =
  Fmt.pf ppf "Table 6.2: raw data — II (cycles), area (rows), registers@\n";
  List.iter
    (fun row ->
      Fmt.pf ppf "@\n%s@\n" row.br_benchmark.Registry.b_name;
      Fmt.pf ppf "  %-12s %6s %8s %6s %5s %9s@\n" "version" "II" "area" "regs"
        "mem" "verified";
      List.iter
        (fun c ->
          let r = c.c_report in
          Fmt.pf ppf "  %-12s %6d %8d %6d %5d %9s@\n"
            (Nimble.version_name c.c_version)
            r.Estimate.r_ii r.Estimate.r_area_rows r.Estimate.r_registers
            r.Estimate.r_mem_refs
            (if c.c_verified then "yes" else "NO"))
        row.br_cells;
      pp_degraded ppf row.br_cells;
      pp_skipped ppf row.br_skipped)
    rows

let pp_table_6_3 ppf (rows : bench_row list) =
  Fmt.pf ppf
    "Table 6.3: normalized — speedup, area, registers, speedup/area@\n";
  List.iter
    (fun row ->
      Fmt.pf ppf "@\n%s@\n" row.br_benchmark.Registry.b_name;
      Fmt.pf ppf "  %-12s %8s %8s %8s %9s@\n" "version" "speedup" "area"
        "regs" "spd/area";
      List.iter
        (fun n ->
          Fmt.pf ppf "  %-12s %8.2f %8.2f %8.2f %9.2f@\n"
            (Nimble.version_name n.n_version)
            n.n_speedup n.n_area n.n_registers n.n_efficiency)
        (normalize row);
      pp_degraded ppf row.br_cells;
      pp_skipped ppf row.br_skipped)
    rows

let pp_series ~unit_label ppf (s : series) =
  List.iter
    (fun (bench, values) ->
      Fmt.pf ppf "@\n%s (%s)@\n" bench unit_label;
      List.iter
        (fun (v, x) ->
          Fmt.pf ppf "  %-12s %8.2f@\n" (Nimble.version_name v) x)
        values)
    s
