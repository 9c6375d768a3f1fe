(** The typed compilation unit the pass pipeline threads: a program, the
    kernel nest location, memoized analyses (loop nest, def/use,
    liveness, induction variables, array dependences), and the optional
    downstream artifacts (kernel DFG, schedule, hardware estimate).

    Analyses are computed on first demand and cached; a transform pass
    replaces the program through {!with_program}, which starts a fresh
    cache (minus anything the pass declares it [preserves]) — the
    invalidation story that keeps memoization sound.

    A unit is confined to one domain: the sweep engine builds a fresh
    unit per (benchmark, version) task, so the mutable caches need no
    locking.  Cache traffic is visible through {!hits}/{!misses} and,
    in the unit's run context ({!ctx}, which every pass, rewrite and
    store hook reads), the [cu.analysis-hit]/[cu.analysis-miss]
    counters. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Dependence = Uas_analysis.Dependence
module Induction = Uas_analysis.Induction

(** The analyses a unit memoizes (the artifacts below are invalidated
    unconditionally by a program change). *)
type analysis = Nest | Def_use | Liveness | Induction | Dependence

val analysis_name : analysis -> string
val all_analyses : analysis list

(** Def/use summary of the kernel nest's inner body. *)
type def_use = {
  du_upward_exposed : Stmt.Sset.t;  (** read before any write *)
  du_defined : Stmt.Sset.t;
  du_loop_carried : Stmt.Sset.t;  (** upward-exposed and defined *)
}

(** Liveness summary of the kernel nest's inner body. *)
type liveness = {
  lv_live_out : Stmt.Sset.t;  (** candidates observable after the body *)
  lv_max_live : int;  (** peak simultaneously-live scalars *)
}

type t

(** A fresh unit with an empty cache.  [outer_index]/[inner_index]
    locate the kernel nest (as in {!Uas_core.Nimble.build_version});
    [ctx] defaults to {!Uas_runtime.Ctx.default}. *)
val make :
  ?ctx:Uas_runtime.Ctx.t -> Stmt.program -> outer_index:string ->
  inner_index:string -> t

(** The run context the unit was made with; {!with_program} keeps it. *)
val ctx : t -> Uas_runtime.Ctx.t

val program : t -> Stmt.program
val outer_index : t -> string

(** Loop index of the hardware kernel — updated by the squash pass,
    whose steady-state loop gets a new index. *)
val inner_index : t -> string

(** [with_program cu p] is the unit a transform pass returns: program
    replaced, analyses dropped except those in [preserves] (default:
    none), artifacts dropped, cache counters carried over.
    [inner_index] re-points the kernel when the transform moved it;
    [outer_index] re-points the nest itself (interchange swaps the two,
    flattening collapses them onto one loop). *)
val with_program :
  ?preserves:analysis list ->
  ?outer_index:string ->
  ?inner_index:string ->
  t ->
  Stmt.program ->
  t

(** {2 Memoized analyses} *)

(** The kernel nest, as the adjacent-pair view headed by the unit's
    outer index.  @raise Not_found when the outer index heads no nest
    level. *)
val nest : t -> Loop_nest.pair

val def_use : t -> def_use
val liveness : t -> liveness

(** Induction variables of the kernel nest's outer loop. *)
val induction : t -> Induction.t list

(** All potentially dependent array access pairs of the kernel nest. *)
val dependence :
  t ->
  (Dependence.access * Dependence.access * Dependence.outer_distance) list

(** {2 Artifacts} *)

val dfg : t -> Uas_dfg.Build.detailed option
val set_dfg : t -> Uas_dfg.Build.detailed -> unit
val schedule : t -> Uas_dfg.Sched.schedule option
val set_schedule : t -> Uas_dfg.Sched.schedule -> unit
val report : t -> Uas_hw.Estimate.report option
val set_report : t -> Uas_hw.Estimate.report -> unit

(** The program compiled for the fast interpreter tier, built on first
    demand (under an [interp.compile] instrumentation span) and cached
    like the analyses: invalidated by {!with_program}, counted through
    {!hits}/{!misses} and the [cu.compiled-hit]/[cu.compiled-miss]
    counters. *)
val compiled : t -> Fast_interp.compiled

(** {2 Cache introspection (tests, counters)} *)

(** Is this analysis currently cached? *)
val cached : t -> analysis -> bool

(** Memoized lookups served from the cache since [make]. *)
val hits : t -> int

(** Analyses actually computed since [make]. *)
val misses : t -> int

(** {2 Incidents}

    Non-fatal trouble — a validation mismatch the pipeline degraded
    around, a fault it recovered from — logged on the unit so the
    sweep/planner can footnote the cell and the trajectory can record
    it.  The log survives {!with_program} (it is the unit's history,
    not an analysis), is returned in chronological order, and counts as
    [cu.incident]. *)

val add_incident : t -> Diag.t -> unit
val incidents : t -> Diag.t list

(** {2 The persistent artifact store}

    Load/save hooks over {!Uas_runtime.Store}: every expensive artifact
    (kernel schedule, hardware estimate, planner row) is keyed by a
    content hash of its full provenance — the
    canonical program text (the {!Uas_ir.Pp} round-trip form), the
    rewrite trail that produced it, the caller's [context] parts
    (datapath fingerprint, effort budgets, cost-model version) and the
    store format version.  All hooks are no-ops when the unit's context
    has no store; lookups count as [cu.store-hit]/[cu.store-miss], and a
    bad or undecodable entry is a miss plus an incident (pass
    ["store"]) — never a wrong answer. *)

(** The program's canonical text ({!Uas_ir.Pp.program_to_string}),
    memoized; reset by {!with_program}. *)
val canonical_text : t -> string

(** The rewrite trail, oldest first: one label per successfully applied
    rewrite (pushed by [Rewrite.apply]).  Survives {!with_program}. *)
val trail : t -> string list

val push_trail : t -> string -> unit

(** The full cache key an artifact of [kind] would be stored under
    (exposed for tests and external poisoning). *)
val store_key : t -> kind:string -> context:string list -> string

(** Look the artifact up in the context's store.  [None] on a miss, a
    bad entry (incident logged), verify mode, or no store. *)
val store_get : t -> kind:string -> context:string list -> string option

(** Publish the artifact.  In verify mode ([cache_verify]) the fresh
    payload is first compared against the cached bytes: a mismatch
    logs an incident and counts [cu.store-verify-mismatch], then the
    recomputed value replaces the entry. *)
val store_put : t -> kind:string -> context:string list -> string -> unit

(** Record that a payload under this kind decoded to nothing usable:
    logs the incident (callers then recompute). *)
val store_undecodable : t -> kind:string -> unit
