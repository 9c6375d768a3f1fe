(** Reference interpreter and profiler.

    Runs a program on a workload and returns the contents of every
    [Output] array plus the final scalar environment.  Transformation
    correctness is defined as bit-for-bit equality of these results.
    The interpreter also attributes estimated cycle costs to every
    enclosing loop (the Table 1.1 profiling study). *)

open Types

type workload = {
  w_scalars : (var * value) list;  (** values for the program's params *)
  w_arrays : (array_id * value array) list;  (** [Input] array contents *)
}

val workload :
  ?scalars:(var * value) list ->
  ?arrays:(array_id * value array) list ->
  unit ->
  workload

type loop_stats = { mutable trips : int; mutable cycles : int }

type profile = {
  mutable total_cycles : int;
  mutable stmts_executed : int;
  mutable mem_refs : int;
  loops : (string, loop_stats) Hashtbl.t;  (** keyed by loop path *)
}

type result = {
  outputs : (array_id * value array) list;
  final_scalars : (var * value) list;
  profile : profile;
}

(** Runtime error: out-of-bounds access, division by zero, undeclared
    name, ill-typed workload. *)
exception Stuck of string

(** Raised past the statement budget (runaway-loop guard). *)
exception Out_of_fuel

val default_fuel : int

(** Execute the program.
    @raise Stuck on runtime errors
    @raise Out_of_fuel past [fuel] executed statements. *)
val run : ?fuel:int -> Stmt.program -> workload -> result

(** Bit-for-bit equality of output arrays (declaration order
    irrelevant). *)
val outputs_equal : result -> result -> bool

(** Human-readable description of the first output difference. *)
val diff_outputs : result -> result -> string option

(** First difference between two complete results — outputs, final
    scalars, then profile.  [None] means bit-for-bit identical (the
    contract {!Fast_interp} is held to). *)
val diff_results : result -> result -> string option

type loop_report = {
  lr_path : string;
  lr_trips : int;
  lr_cycles : int;
  lr_fraction : float;  (** of total program cycles, inclusive *)
}

(** Per-loop execution-time shares, hottest first. *)
val loop_reports : result -> loop_report list
