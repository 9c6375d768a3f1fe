(** Classic scalar optimizations (§4.2): constant folding, copy and
    constant propagation, dead-code elimination, strength reduction.
    Block-level passes act on straight-line regions and are
    conservative elsewhere. *)

open Uas_ir
module Sset = Stmt.Sset

val propagate : Stmt.program -> Stmt.program

(** Remove assignments never observed; [live_out] defaults to every
    declared scalar (a safe identity). *)
val dead_code : ?live_out:Sset.t -> Stmt.program -> Stmt.program

(** Multiplications/divisions/modulus by powers of two become shifts
    and masks where exactness is provable. *)
val strength_reduce : Stmt.program -> Stmt.program

(** [const_fold |> propagate |> strength_reduce |> const_fold]. *)
val cleanup : Stmt.program -> Stmt.program
