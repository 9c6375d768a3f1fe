(** The Chapter 6 experiments: Table 6.2 (raw), Table 6.3 (normalized),
    the Figure 6.x series, and the Figure 2.4 operator-usage timeline —
    over the Table 6.1 benchmark suite, with optional bit-for-bit
    verification of every generated version against the host
    references. *)

module Registry = Uas_bench_suite.Registry
module Estimate = Uas_hw.Estimate

type cell = {
  c_version : Nimble.version;
  c_report : Estimate.report;
  c_verified : bool;  (** outputs match the host reference *)
  c_gap : (int * Uas_dfg.Sched.exact) option;
      (** always [None]; kept only so the frozen perf harness
          ([bench/perf]) compiles *)
  c_incidents : Uas_pass.Diag.t list;
      (** non-fatal trouble the cell degraded around (rewrites rejected
          by translation validation, verification runs gone stuck/out
          of fuel, reference mismatches) — rendered as [degraded:]
          footers; empty on a clean cell *)
}

type skip = {
  s_version : Nimble.version;
  s_diag : Uas_pass.Diag.t;  (** why the version was not built *)
}

type bench_row = {
  br_benchmark : Registry.benchmark;
  br_cells : cell list;  (** built versions, in request order *)
  br_skipped : skip list;
      (** versions a pass rejected — reported in the table footers,
          never silently dropped *)
}

type normalized = {
  n_version : Nimble.version;
  n_speedup : float;
  n_area : float;
  n_registers : float;
  n_efficiency : float;  (** speedup / area *)
  n_operator_share : float;  (** Fig 6.4: operators / area *)
}

(** The versions {!run_benchmark} runs by default: {!Nimble.versions_for}
    at the depth of the benchmark's kernel nest. *)
val versions_of : Registry.benchmark -> Nimble.version list

(** One benchmark's Table 6.2 sweep: the one-benchmark case of
    {!table_6_2}, versions fanned out over a pool of [jobs] domains
    (default: [UAS_JOBS] or the core count; cells are input-ordered and
    bit-identical to a sequential run).  [verify] replays every
    version's compiled program ({!Uas_pass.Cu.compiled}, memoized in
    the compilation unit) against the host reference (on by default).
    [after] observes the compilation unit after every pipeline pass
    (pass [jobs:1] with it — output hooks interleave across
    domains).

    Fault tolerance: the cells go through {!Uas_pass.Pass.fan_out}
    under [ctx] (default {!Uas_runtime.Ctx.default}), each in a fault
    scope named ["<benchmark>/<version>"]; a task the
    pool gives up on surfaces as a skipped cell with a [task]
    diagnostic.  [validate] translation-validates each rewrite on the
    benchmark workload (a miscompiling rewrite degrades its cell
    instead of propagating a wrong program).  A
    verification run that goes stuck or out of fuel marks its cell
    unverified with an incident — it never aborts the sweep. *)
val run_benchmark :
  ?ctx:Uas_runtime.Ctx.t ->
  ?verify:bool ->
  ?validate:bool ->
  ?versions:Nimble.version list ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?after:Uas_pass.Pass.hook ->
  Registry.benchmark ->
  bench_row

(** The whole suite; every (benchmark, version) cell is an independent
    pool task, so the full table scales with the core count.  Fault
    tolerance as in {!run_benchmark}. *)
val table_6_2 :
  ?ctx:Uas_runtime.Ctx.t ->
  ?verify:bool ->
  ?validate:bool ->
  ?jobs:int ->
  ?timeout_s:float ->
  unit ->
  bench_row list

(** Table 6.3 normalization against the Original cell.
    @raise Invalid_argument without an Original version. *)
val normalize : bench_row -> normalized list

type series = (string * (Nimble.version * float) list) list

val figure : value:(normalized -> float) -> bench_row list -> series

(** Speedup factor. *)
val figure_6_1 : bench_row list -> series

(** Area increase factor. *)
val figure_6_2 : bench_row list -> series

(** Efficiency (speedup/area). *)
val figure_6_3 : bench_row list -> series

(** Operators as a percentage of area. *)
val figure_6_4 : bench_row list -> series

type usage_cell = {
  u_time : int;
  u_operator : string;
  u_data_set : int option;  (** [None] = idle slot *)
}

(** Figure 2.4: jam vs squash operator occupancy on the f/g example. *)
val figure_2_4 : cycles:int -> (string * usage_cell list) list

val pp_table_6_2 : bench_row list Fmt.t
val pp_table_6_3 : bench_row list Fmt.t
val pp_series : unit_label:string -> series Fmt.t
