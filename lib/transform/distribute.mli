(** Loop distribution (fission): split one loop into two at a statement
    cut.  Legal when no value flows backwards between the groups
    (scalars may not cross the cut at all; arrays only forward at the
    same iteration). *)

open Uas_ir

type failure =
  | Scalar_flow of string
  | Array_flow of string
  | Bad_cut

val pp_failure : failure Fmt.t

exception Distribute_error of failure

(** Why cutting the body after its first [cut] statements would be
    illegal; empty when safe. *)
val failures : Stmt.loop -> cut:int -> failure list

(** Distribute the loop with this index at position [cut].
    @raise Distribute_error when illegal
    @raise Ir_error when the loop is absent. *)
val apply : Stmt.program -> index:string -> cut:int -> Stmt.program

(** [apply] with the illegality as data instead of an exception.
    @raise Ir_error when the loop is absent. *)
val apply_res :
  Stmt.program -> index:string -> cut:int -> (Stmt.program, failure) result
