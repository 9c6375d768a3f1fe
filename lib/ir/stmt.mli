(** Statements and programs of the loop IR.

    Loops are counted FOR loops with a positive constant step:
    [for (i = lo; i < hi; i += step)].  A program declares its scalars
    (parameters + locals), arrays and ROMs up front; {!Validate}
    enforces the static semantics. *)

open Types

type loop = {
  index : var;
  lo : Expr.t;
  hi : Expr.t;  (** exclusive upper bound *)
  step : int;  (** positive constant *)
  body : t list;
}

and t =
  | Assign of var * Expr.t
  | Store of array_id * Expr.t * Expr.t
      (** [Store (a, idx, e)] is [a[idx] = e] *)
  | If of Expr.t * t list * t list
  | For of loop

type array_kind =
  | Input  (** initialized from the workload *)
  | Output  (** observable result *)
  | Local  (** scratch, zero-initialized *)

type array_decl = {
  a_name : array_id;
  a_ty : ty;
  a_size : int;
  a_kind : array_kind;
}

type rom_decl = { r_name : rom_id; r_data : int array }

type program = {
  prog_name : string;
  params : (var * ty) list;  (** scalar inputs supplied by the workload *)
  locals : (var * ty) list;
  arrays : array_decl list;
  roms : rom_decl list;
  body : t list;
}

val equal : t -> t -> bool
val equal_list : t list -> t list -> bool

(** Pre-order fold over every statement (descending into bodies). *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val fold_list : ('a -> t -> 'a) -> 'a -> t list -> 'a

(** Fold over every expression, including loop bounds. *)
val fold_exprs : ('a -> Expr.t -> 'a) -> 'a -> t list -> 'a

(** Bottom-up statement rewrite; the callback may expand one statement
    to several. *)
val rewrite : (t -> t list) -> t -> t list

val rewrite_list : (t -> t list) -> t list -> t list

(** Rewrite every expression in place (loop bounds included). *)
val map_exprs_list : (Expr.t -> Expr.t) -> t list -> t list

module Sset = Expr.Sset

(** Scalars assigned anywhere (loop indices included). *)
val defs : t list -> Sset.t

(** Scalars read anywhere. *)
val uses : t list -> Sset.t

(** [defs ∪ uses]. *)
val scalars : t list -> Sset.t

val arrays_written : t list -> Sset.t

(** Loads plus stores — the §6.1 memory-reference count. *)
val memory_reference_count : t list -> int

(** Datapath operators (expression operators plus one per store). *)
val operator_count : t list -> int

(** No control flow (a single basic block)? *)
val is_straight_line : t list -> bool

(** Rename every scalar occurrence, defs and uses. *)
val rename_vars_list : (var -> var) -> t list -> t list

(** Structural statement count. *)
val size : t list -> int

val scalar_decls : program -> (var * ty) list
val lookup_scalar_ty : program -> var -> ty option
val lookup_array : program -> array_id -> array_decl option

(** Declare more locals, skipping names already declared. *)
val add_locals : program -> (var * ty) list -> program

(** A fresh scalar name based on [base], avoiding declared names and
    [avoid]. *)
val fresh_var : program -> ?avoid:var list -> string -> var
