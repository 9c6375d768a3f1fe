(** The slot-compiled fast interpreter tier.

    Compiles a program once to closures over dense slot-indexed arrays
    ({!Slots}): no string hashing and no AST dispatch on the hot path.
    Observationally identical to the reference interpreter {!Interp} —
    outputs, final scalars, the complete cycle/trip/mem-ref profile,
    and the same {!Interp.Stuck} messages and {!Interp.Out_of_fuel}
    cutoffs in the same evaluation order.  [Interp] stays the oracle;
    this tier is what the sweeps and verifications actually run.

    A {!compiled} value is immutable: every {!run} builds a fresh
    per-run state, so one compilation is reusable across workloads and
    domains (the {!Uas_pass.Cu} compilation unit memoizes it as an
    artifact). *)

(** {2 Interpreter tiers} *)

type tier =
  | Ref  (** the tree-walking reference interpreter ({!Interp.run}) *)
  | Fast  (** this compile-to-closure tier *)

(** ["ref"] or ["fast"]: the one spelling every CLI, log line, fault
    label and trajectory field uses. *)
val tier_name : tier -> string

(** ["ref"]/["reference"] or ["fast"] (case-insensitive). *)
val tier_of_string : string -> tier option

(** The [UAS_INTERP] environment variable name. *)
val env_var : string

(** The valid tier names, for diagnostics: ["ref or fast"]. *)
val valid_tiers : string

(** [Some message] if {!env_var} is set to an unknown tier name — the
    CLIs report it up front and exit 1 (never a silent fallback, never
    a backtrace). *)
val env_tier_error : unit -> string option

(** The process-wide default tier used by the production execution
    paths (benchmark verification, the Table 1.1 profiler, nimblec
    run).  Initially [Fast], or the value of the [UAS_INTERP]
    environment variable; set from the CLIs' [--interp] flag. *)
val default_tier : unit -> tier

val set_default_tier : tier -> unit

(** {2 Compilation and execution} *)

type compiled

(** Compile [p] to closures.  Never raises on ill-formed programs: a
    reference to an undeclared name compiles to a closure that raises
    the reference interpreter's [Stuck] when (and only when) it is
    actually executed. *)
val compile : Stmt.program -> compiled

val program : compiled -> Stmt.program
val slots : compiled -> Slots.t

(** Run a compiled program on a workload.  The compiled value is not
    mutated — each call builds a fresh state, so one compilation can
    be replayed on any number of workloads, from any domain.
    @raise Interp.Stuck on runtime errors
    @raise Interp.Out_of_fuel past [fuel] executed statements. *)
val run : ?fuel:int -> compiled -> Interp.workload -> Interp.result

(** Compile and run in one step (no artifact reuse). *)
val run_program : ?fuel:int -> Stmt.program -> Interp.workload -> Interp.result

(** What a tier runs: a program, or one already compiled for the fast
    tier (a compilation unit's memoized artifact, reused as is). *)
type code = Source of Stmt.program | Compiled of compiled

(** Run on the given tier: {!Interp.run}, or {!run} (compiling a
    [Source] first).  The one tier dispatcher; production paths reach
    it through [Registry.run_tier]. *)
val run_tier : ?fuel:int -> tier -> code -> Interp.workload -> Interp.result
