(** The cost-model-driven transform planner: enumerate rewrite
    sequences ending in unroll-and-squash (enabling prefixes from the
    {!Uas_transform.Rewrite} registry × DS in [{2, 4, 8}]), score each
    with the §5.2 quick-synthesis estimate on the sweep engine's
    memoized pass pipeline, and rank by an objective.  Candidates whose
    enabling prefixes reach the same program share one squash and one
    quick synthesis.  Illegal candidates keep their diagnostics and
    rank last, so the table accounts for the whole search space. *)

module Estimate = Uas_hw.Estimate
module Diag = Uas_pass.Diag

(** What the ranking optimizes: kernel initiation interval, area rows,
    or speedup per area (the Figure 6.3 efficiency metric, the
    default). *)
type objective = Ii | Area | Ratio

val objective_name : objective -> string

(** ["ii"], ["area"], ["ratio"]. *)
val objective_of_string : string -> objective option

(** A point of the search space. *)
type candidate = {
  c_label : string;  (** e.g. ["hoist+squash(4)"], ["original"] *)
  c_sequence : string list;  (** registry names, applied in order *)
  c_ds : int;  (** squash factor; 1 on the baselines *)
  c_pipelined : bool;  (** modulo-scheduled kernel? *)
}

(** The enabling prefixes explored, each a registry-name sequence. *)
val enabling_prefixes : string list list

(** The squash factors explored: [2; 4; 8]. *)
val default_factors : int list

(** The full search space: the [original]/[pipelined] baselines plus
    every enabling prefix × factor, squash last.  For a kernel nest of
    [depth] > 2 (default 2), every prefix is preceded by [depth - 2]
    flattens, which collapse the nest to the adjacent-pair shape squash
    requires. *)
val candidates : ?depth:int -> unit -> candidate list

type row = {
  r_candidate : candidate;
  r_outcome : (Estimate.report, Diag.t) result;
  r_gap : (int * Uas_dfg.Sched.exact) option;
      (** always [None]; kept only so the frozen perf harness
          ([bench/perf]) compiles *)
  r_incidents : Diag.t list;
      (** rewrites translation validation rejected along this
          candidate's sequence — the report then describes the
          last-known-good program; rendered as [degraded:] footers *)
}

type plan = {
  p_benchmark : string;
  p_objective : objective;
  p_baseline : Estimate.report option;  (** the original design's report *)
  p_rows : row list;  (** ranked, best first; skipped candidates last *)
}

(** Score every candidate on the benchmark nest and rank.  Ranking is
    deterministic (ties break on II, cycles, area, label), and so is
    the work shared between candidates, at any pool size [jobs].

    The work runs in two {!Uas_pass.Pass.fan_out}s under [ctx]
    (default {!Uas_runtime.Ctx.default}).  Phase 1 has one task per
    candidate, in the fault scope ["<benchmark>/<label>"]: the
    plan-row store lookup, analysis and the enabling prefix (every
    rewrite but the final squash).  Phase 2 has one task per distinct
    (canonical program text, outer index, inner index, squash factor,
    pipelined) key: squash and quick synthesis on the first member's
    unit, in its scope.  Every member's row gets the group's outcome,
    with the report named after the member's own label, and its own
    prefix incidents followed by the group's.  Plan rows are stored
    under the unprefixed program, so a warm plan runs neither phase's
    passes.

    [validate] translation-validates every rewrite on the probe
    workload (a rejected rewrite degrades the candidate to its
    last-known-good program, logged in [r_incidents]);
    [timeout_s] is the pool's per-task wall budget, and a task the pool
    gives up on (an uncaught exception, an injected fault included, or
    a timeout) ranks last with a [task] diagnostic.  A fault that
    skips a phase-1 task skips one row; one that fires in phase 2,
    which runs in the first member's scope, skips every row of the
    group. *)
val plan :
  ?ctx:Uas_runtime.Ctx.t ->
  ?jobs:int ->
  ?objective:objective ->
  ?validate:Uas_ir.Interp.workload ->
  ?timeout_s:float ->
  Uas_ir.Stmt.program ->
  outer_index:string ->
  inner_index:string ->
  benchmark:string ->
  plan

(** The 1-based rank of the first estimated row whose candidate
    satisfies the predicate; [None] when every match was skipped. *)
val rank_of : plan -> (candidate -> bool) -> int option

(** The [ratio] objective against the original design's report:
    {!Uas_hw.Estimate.efficiency}, the Figure 6.3 metric. *)
val ratio : base:Estimate.report -> Estimate.report -> float

(** The ranked plan table, skipped candidates footnoted with their
    diagnostics. *)
val pp : plan Fmt.t
