(** The analysis and quick-synthesis passes of the Nimble-style flow,
    each a thin pass wrapper over an existing [lib/analysis] /
    [lib/dfg] / [lib/hw] stage.  The transform passes (squash, jam,
    interchange, ...) live in the [Uas_transform.Rewrite] registry and
    convert to passes through [Rewrite.pass].  See docs/PIPELINE.md for
    the pass-ordering table and the thesis section each pass
    reproduces. *)

module Datapath = Uas_hw.Datapath

(** ["loop-nest"]: locate the kernel nest and warm the def/use,
    liveness, and induction caches.  Fails with a diagnostic when the
    outer index heads no nest level. *)
val analyze : Pass.t

(** ["legality"]: the §4.1/§4.2 check at factor [ds]; fails with the
    verdict's violations when the nest is not transformable.  Squash
    and jam re-derive the verdict internally (it also carries their
    enabling rewrites), so this pass is for early/explicit checking. *)
val legality : ds:int -> Pass.t

(** ["dfg-build"]: build the kernel DFG artifact. *)
val dfg_build : ?target:Datapath.t -> unit -> Pass.t

(** ["schedule"]: schedule the kernel DFG (modulo when [pipelined],
    list otherwise), building the DFG first if missing.  A modulo run
    that exhausts its effort budget degrades to the non-overlapped
    fallback with an incident logged on the unit. *)
val schedule : ?target:Datapath.t -> pipelined:bool -> unit -> Pass.t

(** ["exact-ii"]: the second II oracle.  [Exact_check] validates the
    heuristic schedule with {!Uas_dfg.Sched.check_schedule};
    [Exact_report] additionally runs {!Uas_dfg.Sched.optimal_schedule}
    on pipelined kernels (memoized on the unit as the [exact] artifact,
    witness-capped by the heuristic schedule).  Violations — an invalid
    heuristic schedule, or a heuristic II below the proven optimum —
    become incidents; the pass never fails, so sweeps always complete.
    [Exact_off] is a no-op. *)
val exact_ii :
  ?target:Datapath.t ->
  pipelined:bool ->
  mode:Uas_dfg.Sched.exact_mode ->
  unit ->
  Pass.t

(** ["estimate"]: assemble the hardware report from the cached DFG and
    schedule artifacts (building them if missing) — bit-identical to
    [Uas_hw.Estimate.kernel]. *)
val estimate : ?target:Datapath.t -> pipelined:bool -> ?name:string -> unit -> Pass.t

(** The quick-synthesis pipeline
    [dfg-build; schedule; exact-ii; estimate] — what every driver runs
    after a version's or a candidate's rewrites. *)
val quick_synthesis :
  target:Datapath.t ->
  pipelined:bool ->
  exact:Uas_dfg.Sched.exact_mode ->
  name:string ->
  Pass.t list

(** After {!quick_synthesis} in [Exact_report] mode on a pipelined
    kernel: the heuristic II next to the exact oracle's verdict (a
    [gap:] footer, {!Uas_dfg.Sched.pp_gap}); [None] otherwise. *)
val gap :
  exact:Uas_dfg.Sched.exact_mode ->
  pipelined:bool ->
  Cu.t ->
  (int * Uas_dfg.Sched.exact) option

(** Every stage name above, in canonical pipeline order.  nimblec's
    [--dump-after] accepts these plus every registered rewrite name. *)
val names : string list
