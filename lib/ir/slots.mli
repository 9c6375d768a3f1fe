(** Dense integer slot resolution for the compiled interpreter.

    Maps every scalar and array name of a program to a dense
    integer slot so {!Fast_interp} can replace the reference
    interpreter's string-keyed hashtables with array indexing.

    Scalar slots list the declared scalars first (params then locals,
    declaration order), followed by loop indices used without a
    declaration — the reference interpreter admits those dynamically,
    so they need slots (guarded by a definedness flag) to reproduce its
    behavior exactly. *)

open Types

type t

val of_program : Stmt.program -> t

(** {2 Scalars} *)

val scalar_count : t -> int

val scalar_slot : t -> var -> int option

(** [true] for declared scalars; [false] for undeclared loop indices,
    which only enter the environment when their loop first executes. *)
val scalar_is_declared : t -> int -> bool

(** {2 Arrays (declaration order)} *)

val array_slot : t -> array_id -> int option
