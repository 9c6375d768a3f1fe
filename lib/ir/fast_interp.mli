(** The slot-compiled interpreter: the one execution tier.

    Compiles a program once to closures over dense slot-indexed arrays
    ({!Slots}): no string hashing and no AST dispatch on the hot path.
    Observationally identical to the reference interpreter {!Interp} —
    outputs, final scalars, the complete cycle/trip/mem-ref profile,
    and the same {!Interp.Stuck} messages and {!Interp.Out_of_fuel}
    cutoffs in the same evaluation order.  [Interp] stays the oracle
    (the tests and [--validate probe]'s differential); this is what
    verification, [nimblec run], the profiler and the daemon run.

    A {!compiled} value is immutable: every {!run} builds a fresh
    per-run state, so one compilation is reusable across workloads and
    domains (the {!Uas_pass.Cu} compilation unit memoizes it as an
    artifact). *)

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
