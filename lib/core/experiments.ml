(* The Chapter 6 experiments: Table 6.2 (raw II / area / registers),
   Table 6.3 (normalized speedup / area / registers / efficiency) and
   the four derived figures, computed over the Table 6.1 benchmark
   suite.  Also verifies that every generated version still computes
   the host-reference outputs bit-for-bit — a check the paper could not
   make mechanically. *)

module Registry = Uas_bench_suite.Registry
module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Parallel = Uas_runtime.Parallel
module Instrument = Uas_runtime.Instrument
module Fault = Uas_runtime.Fault
module Fast_interp = Uas_ir.Fast_interp
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Sched = Uas_dfg.Sched

type cell = {
  c_version : Nimble.version;
  c_report : Estimate.report;
  c_verified : bool;  (** outputs match the host reference *)
  c_gap : (int * Sched.exact) option;
      (** with [--exact-ii report] on a pipelined version: the
          heuristic II next to the exact oracle's verdict — rendered as
          [gap:] table footers *)
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
   compilation unit, both interpreter tiers copy the workload's input
   arrays, and the benchmark record is only read.

   The whole cell runs inside a fault scope named
   "<benchmark>/<version>", so a labeled fault spec lands on one exact
   cell at any pool size.  A verification run that goes wrong — stuck,
   out of fuel, an injected interpreter fault, outputs differing from
   the host reference — marks the cell unverified with an incident; it
   never aborts the sweep. *)
let build_cell ?after ?(validate = false) ?(exact = Sched.Exact_off) ~target
    ~verify ~tier (b : Registry.benchmark) (v : Nimble.version) :
    (cell, skip) result =
  Fault.with_scope (b.Registry.b_name ^ "/" ^ Nimble.version_name v)
  @@ fun () ->
  let probe = if validate then Some b.Registry.b_workload else None in
  match
    Nimble.run_version_cu ~target ?after ?validate:probe ~exact
      b.Registry.b_program ~outer_index:b.Registry.b_outer_index
      ~inner_index:b.Registry.b_inner_index v
  with
  | Error d -> Error { s_version = v; s_diag = d }
  | Ok (cu, built, report) ->
    let gap =
      if exact = Sched.Exact_report && Nimble.pipelined v then
        match (Cu.schedule cu, Cu.exact cu) with
        | Some s, Some e -> Some (s.Sched.s_ii, e)
        | _ -> None
      else None
    in
    let incidents = ref (Cu.incidents cu) in
    let incident fmt =
      Fmt.kstr
        (fun m ->
          incidents := !incidents @ [ Diag.errorf ~pass:"verify" "%s" m ])
        fmt
    in
    let verified =
      (not verify)
      || Instrument.span "pass.verify" (fun () ->
             let run ?fuel () =
               match (tier : Fast_interp.tier) with
               | Ref ->
                 Instrument.span "interp.run.ref" (fun () ->
                     Uas_ir.Interp.run ?fuel built.Nimble.bv_program
                       b.Registry.b_workload)
               | Fast ->
                 (* reuse (or create) the unit's compiled artifact *)
                 let compiled = Cu.compiled cu in
                 Instrument.span "interp.run.fast" (fun () ->
                     Fast_interp.run ?fuel compiled b.Registry.b_workload)
             in
             match
               (* the [interp.run] fault site, tier-labeled like
                  [Registry.run_tier] *)
               match
                 Fault.hit ~label:(Fast_interp.tier_name tier) "interp.run"
               with
               | None -> run ()
               | Some Fault.Raise ->
                 raise
                   (Fault.Injected { site = "interp.run"; kind = Fault.Raise })
               | Some Fault.Stall -> run ~fuel:Registry.stall_fuel ()
               | Some Fault.Corrupt -> Registry.corrupt_result (run ())
             with
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
             | exception Fault.Injected { site; kind } ->
               incident "injected fault at site %s (kind %s)" site
                 (Fault.kind_name kind);
               false)
    in
    Ok
      { c_version = v;
        c_report = report;
        c_verified = verified;
        c_gap = gap;
        c_incidents = !incidents }

let row_of_results b results =
  { br_benchmark = b;
    br_cells = List.filter_map Result.to_option results;
    br_skipped =
      List.filter_map
        (function Ok _ -> None | Error s -> Some s)
        results }

(* A task the pool itself gave up on — uncaught exception after
   retries, wall-budget timeout — becomes a skipped cell, so one bad
   (benchmark, version) can never abort the table. *)
let skip_of_failure v (tf : Parallel.Task_failure.t) : skip =
  Instrument.incr "sweep.task-failures";
  { s_version = v;
    s_diag = Diag.errorf ~pass:"task" "%s" (Parallel.Task_failure.to_message tf)
  }

(** Run the full Table 6.2 sweep for one benchmark, versions fanned out
    over the domain pool.  [verify] replays every transformed program
    in the interpreter against the host reference (slower; on by
    default).  [validate] translation-validates every rewrite on the
    benchmark workload (degrading cells whose rewrites miscompile).
    [timeout_s]/[retries] supervise the pool tasks
    ({!Uas_runtime.Parallel.map_results}).  [after] observes the
    compilation unit after every pass (nimblec's [--dump-after]);
    dumping interleaves across domains, so pass [jobs:1] with it.
    [tier] picks the verification interpreter (default: the
    process-wide {!Fast_interp.default_tier}). *)
let run_benchmark ?(target = Datapath.default) ?(verify = true) ?tier
    ?(validate = false) ?exact ?versions ?jobs ?timeout_s ?retries ?after
    (b : Registry.benchmark) : bench_row =
  let versions =
    match versions with
    | Some vs -> vs
    | None ->
      (* default to the depth-appropriate set: the Table 6.2 versions
         on a 2-deep kernel, flatten+squash on deeper nests *)
      let depth =
        Option.value ~default:2
          (Uas_analysis.Loop_nest.depth_at b.Registry.b_program
             b.Registry.b_outer_index)
      in
      Nimble.versions_for ~depth
  in
  let tier =
    match tier with Some t -> t | None -> Fast_interp.default_tier ()
  in
  row_of_results b
    (Parallel.map_results ?jobs ?timeout_s ?retries
       (build_cell ?after ~validate ?exact ~target ~verify ~tier b)
       versions
    |> List.map2
         (fun v -> function
           | Ok r -> r | Error tf -> Error (skip_of_failure v tf))
         versions)

(** Table 6.2 over the whole suite.  All (benchmark, version) cells —
    ~50 independent build+estimate+verify tasks — go through one flat
    pool fan-out, so the hot path scales with the core count instead of
    running strictly sequentially. *)
let table_6_2 ?(target = Datapath.default) ?(verify = true) ?tier
    ?(validate = false) ?exact ?jobs ?timeout_s ?retries () : bench_row list =
  let tier =
    match tier with Some t -> t | None -> Fast_interp.default_tier ()
  in
  let benches = Registry.all () in
  let versions = Nimble.paper_versions in
  let tasks =
    List.concat_map (fun b -> List.map (fun v -> (b, v)) versions) benches
  in
  let cells =
    Parallel.map_results ?jobs ?timeout_s ?retries
      (fun (b, v) -> build_cell ~validate ?exact ~target ~verify ~tier b v)
      tasks
    |> List.map2
         (fun (_, v) -> function
           | Ok r -> r | Error tf -> Error (skip_of_failure v tf))
         tasks
  in
  (* regroup the flat, input-ordered cell list benchmark-major *)
  let nv = List.length versions in
  List.mapi
    (fun bi b ->
      row_of_results b (List.filteri (fun i _ -> i / nv = bi) cells))
    benches

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
  let f = float_of_int in
  List.map
    (fun c ->
      let r = c.c_report in
      let speedup =
        f base.Estimate.r_total_cycles /. f (max 1 r.Estimate.r_total_cycles)
      in
      let area = f r.Estimate.r_area_rows /. f (max 1 base.Estimate.r_area_rows) in
      let regs =
        f r.Estimate.r_registers /. f (max 1 base.Estimate.r_registers)
      in
      { n_version = c.c_version;
        n_speedup = speedup;
        n_area = area;
        n_registers = regs;
        n_efficiency = speedup /. area;
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

let pp_version ppf v = Fmt.string ppf (Nimble.version_name v)

(* The footers shared by the Table 6.2/6.3 printers: one
   "degraded: <version> — <diagnostic>" line per incident a cell
   recovered from, then one "skipped: <version> — <diagnostic>" line
   per version a pass rejected.  Both empty (and silent) when every
   version built cleanly — the clean table output is byte-identical to
   the pre-fault-tolerance printers. *)
(* One "gap: <version> — <verdict>" footnote per cell that ran the
   exact oracle (silent in off/check modes, so the default table output
   is byte-identical to the pre-oracle printers). *)
let pp_gaps ppf (cells : cell list) =
  List.iter
    (fun c ->
      match c.c_gap with
      | None -> ()
      | Some gap ->
        Fmt.pf ppf "  gap: %-12s — %a@\n"
          (Nimble.version_name c.c_version)
          Sched.pp_gap gap)
    cells

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
      pp_gaps ppf row.br_cells;
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
