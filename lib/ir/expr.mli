(** Expressions of the loop IR.

    Expressions are pure except for {!constructor:Load}, which reads
    memory and counts as a memory reference in the hardware cost model.
    [Rom] lookups read baked-in local tables and do not use a memory
    port. *)

open Types

type t =
  | Int of int
  | Float of float
  | Var of var
  | Load of array_id * t  (** memory load [a[idx]] *)
  | Rom of rom_id * t  (** local-ROM lookup (not a memory reference) *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of t * t * t  (** [c ? a : b]; both arms always evaluate *)

(** Structural equality; floats compare bit-for-bit. *)
val equal : t -> t -> bool

(** [fold f acc e] folds [f] over every node of [e], pre-order. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

(** [map f e] rewrites every node bottom-up. *)
val map : (t -> t) -> t -> t

(** Scalars read, left-to-right, with duplicates. *)
val vars : t -> var list

module Sset : Set.S with type elt = string

val var_set : t -> Sset.t

(** Does [e] read scalar [v]? *)
val mem_var : var -> t -> bool

(** Arrays loaded from (no duplicates). *)
val arrays_loaded : t -> array_id list

(** Number of memory loads. *)
val load_count : t -> int

val has_load : t -> bool

(** [subst_vars f e] replaces each [Var v] by [f v] when it is [Some]. *)
val subst_vars : (var -> t option) -> t -> t

(** Rename every variable occurrence. *)
val rename : (var -> var) -> t -> t

(** Evaluate a binary operator on values.
    @raise Ir_error on type mismatch or division by zero. *)
val eval_binop : binop -> value -> value -> value

(** @raise Ir_error on type mismatch. *)
val eval_unop : unop -> value -> value

(** Constant folding and exactness-preserving algebraic simplification.
    Never folds away memory loads, faulting divisions, or float
    identities that could change rounding. *)
val simplify : t -> t

(** Node count. *)
val size : t -> int

(** Datapath operators in [e]: every node except constants and variable
    reads. *)
val operator_count : t -> int
