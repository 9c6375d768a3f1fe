(** The typed compilation unit the pass pipeline threads: a program, the
    kernel nest location, the memoized kernel nest, and the optional
    downstream artifacts (kernel DFG, schedule, hardware estimate).
    Every other analysis is computed by the step that needs it.

    The nest is looked up on first demand and cached; a transform pass
    replaces the program through {!with_program}, which drops the nest
    and every artifact — the invalidation story that keeps memoization
    sound.

    A unit is confined to one domain: the sweep engine builds a fresh
    unit per (benchmark, version) task, so the mutable caches need no
    locking.  Cache traffic is visible through {!hits}/{!misses} and,
    in the unit's run context ({!ctx}, which every pass, rewrite and
    store hook reads), the [cu.nest-hit]/[cu.nest-miss] and
    [cu.compiled-hit]/[cu.compiled-miss] counters. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest

type t

(** A fresh unit with an empty cache.  [outer_index]/[inner_index]
    locate the kernel nest: its outer loop and the inner loop the
    hardware kernel runs;
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
    replaced, nest and artifacts dropped, cache counters carried over.
    [inner_index] re-points the kernel when the transform moved it;
    [outer_index] re-points the nest itself (interchange swaps the two,
    flattening collapses them onto one loop). *)
val with_program :
  ?outer_index:string ->
  ?inner_index:string ->
  t ->
  Stmt.program ->
  t

(** The kernel nest, as the adjacent-pair view headed by the unit's
    outer index.  @raise Not_found when the outer index heads no nest
    level. *)
val nest : t -> Loop_nest.pair

(** {2 Artifacts} *)

val dfg : t -> Uas_dfg.Build.detailed option
val set_dfg : t -> Uas_dfg.Build.detailed -> unit
val schedule : t -> Uas_dfg.Sched.schedule option
val set_schedule : t -> Uas_dfg.Sched.schedule -> unit
val report : t -> Uas_hw.Estimate.report option
val set_report : t -> Uas_hw.Estimate.report -> unit

(** The program compiled for {!Fast_interp} (what verification runs),
    built on first demand (under an [interp.compile] instrumentation
    span) and cached like the nest: invalidated by
    {!with_program}, counted through {!hits}/{!misses} and the
    [cu.compiled-hit]/[cu.compiled-miss] counters. *)
val compiled : t -> Fast_interp.compiled

(** {2 Cache introspection (tests, counters)} *)

(** {!nest} and {!compiled} lookups served from the cache since
    [make]. *)
val hits : t -> int

(** {!nest} and {!compiled} lookups that computed since [make]. *)
val misses : t -> int

(** {2 Incidents}

    Non-fatal trouble — a validation mismatch the pipeline degraded
    around, a fault it recovered from — logged on the unit so the
    sweep/planner can footnote the cell and the trajectory can record
    it.  The log survives {!with_program} (it is the unit's history,
    not a fact about its program), is returned in chronological order,
    and counts as [cu.incident]. *)

val add_incident : t -> Diag.t -> unit
val incidents : t -> Diag.t list

(** {2 The persistent artifact store}

    Load/save hooks over {!Uas_runtime.Store}: every expensive artifact
    (kernel schedule, planner row) is a {!Uas_runtime.Record} field
    list, keyed by a content hash of what it is computed from — the
    canonical program text (the {!Uas_ir.Pp} round-trip form), the
    caller's [context] parts (datapath fingerprint, kernel index,
    effort budgets, cost-model version) and
    {!Uas_runtime.Store.format_version}, the one version any payload
    carries — but not the rewrites that produced the program.  All
    hooks are no-ops when the unit's context has no store; lookups
    count as [cu.store-hit]/[cu.store-miss], and a bad or undecodable
    entry is a miss plus an incident (pass ["store"]) — never a wrong
    answer. *)

(** The program's canonical text ({!Uas_ir.Pp.program_to_string}),
    memoized; reset by {!with_program}. *)
val canonical_text : t -> string

(** Look the artifact up in the context's store and [decode] its
    fields ({!Uas_runtime.Record}).  [None] on a miss, a bad entry or
    a payload that does not decode (incident logged either way),
    verify mode, or no store. *)
val store_get :
  t ->
  kind:string ->
  context:string list ->
  decode:(Uas_runtime.Record.t -> 'a option) ->
  'a option

(** Publish the artifact's fields.  In verify mode ([cache_verify]) the
    fresh payload is first compared against the cached bytes: a
    mismatch logs an incident and counts [cu.store-verify-mismatch],
    then the recomputed value replaces the entry. *)
val store_put :
  t -> kind:string -> context:string list -> Uas_runtime.Record.t -> unit
