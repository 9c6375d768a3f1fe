(** Outer-loop induction variables (§4.2): scalars updated exactly once
    per outer iteration by a constant increment.  They carry a
    dependence that blocks unroll-and-squash; rewriting every use to a
    closed form of the outer index removes it and exposes the accesses
    they index to the affine dependence tests. *)

open Uas_ir

type t = {
  iv_var : Types.var;
  iv_step : int;  (** increment per outer iteration *)
  iv_in_pre : bool;  (** the update sits in [pre] (else in [post]) *)
}

(** Number of definitions of [v] in the statement list. *)
val count_defs : Types.var -> Stmt.t list -> int

(** Induction variables of the nest's outer loop. *)
val find : Loop_nest.pair -> t list

(** Rewrite only the nest: substitute every use by its closed form and
    drop the update. *)
val rewrite_nest : Loop_nest.pair -> t -> base:string -> Loop_nest.pair

(** Rewrite inside a whole program: capture the entry value, rewrite
    the nest, restore the exit value.  Returns the program and the
    rewritten nest. *)
val rewrite : Stmt.program -> Loop_nest.pair -> t -> Stmt.program * Loop_nest.pair
