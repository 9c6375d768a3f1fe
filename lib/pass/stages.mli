(** The nest lookup and quick-synthesis passes of the Nimble-style
    flow, each a thin pass wrapper over an existing [lib/analysis] /
    [lib/dfg] / [lib/hw] stage.  Only the kernel schedule goes through
    the persistent store.  The transform passes (squash, jam,
    interchange, ...) live in the [Uas_transform.Rewrite] registry and
    convert to passes through [Rewrite.pass].  See docs/PIPELINE.md for
    the pass-ordering table and the thesis section each pass
    reproduces. *)

module Datapath = Uas_hw.Datapath

(** ["loop-nest"]: locate the kernel nest (the unit's memoized
    {!Cu.nest}, which the squash and jam rewrites read).  Fails with a
    diagnostic when the outer index heads no nest level. *)
val analyze : Pass.t

(** ["dfg-build"]: build the kernel DFG artifact.  This stage and the
    two below fail with a diagnostic on the kernel loop when the
    estimator cannot model it ({!Uas_hw.Estimate.Not_a_kernel}). *)
val dfg_build : unit -> Pass.t

(** ["schedule"]: schedule the kernel DFG
    ({!Uas_dfg.Sched.modulo_schedule} when [pipelined], list
    otherwise), building the DFG first if missing.  A run that
    exhausts a budget keeps its schedule's note as an incident on the
    unit (the store replays it).  Every schedule, computed or read from
    the store, is checked with {!Uas_dfg.Sched.check_schedule}; a
    violation is an incident too.  [exact_effort] (default
    {!Uas_dfg.Sched.default_exact_effort}) is the exact search's
    budget and part of the schedule's store key. *)
val schedule :
  ?target:Datapath.t -> ?exact_effort:int -> pipelined:bool -> unit -> Pass.t

(** Kept only so the frozen perf harness ([bench/perf]) compiles: the
    deleted ["exact-ii"] pass, now a no-op. *)
val exact_ii :
  pipelined:bool -> mode:Uas_dfg.Sched.exact_mode -> unit -> Pass.t

(** ["estimate"]: assemble the hardware report from the unit's DFG and
    schedule artifacts (building them if missing).  The report is not
    stored: assembling it is cheaper than a store round-trip. *)
val estimate : ?target:Datapath.t -> pipelined:bool -> ?name:string -> unit -> Pass.t

(** The quick-synthesis pipeline [dfg-build; schedule; estimate] —
    what every driver runs after a version's or a candidate's
    rewrites. *)
val quick_synthesis :
  target:Datapath.t -> pipelined:bool -> name:string -> Pass.t list

(** Every stage name above, in canonical pipeline order.  nimblec's
    [--dump-after] selects a pass by name, so these never collide with
    a registered rewrite name. *)
val names : string list
