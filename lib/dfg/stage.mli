(** Pipeline-stage assignment for unroll-and-squash (§4.3): cut a
    straight-line body into exactly DS contiguous slices minimizing the
    maximum slice delay (the linear-partition dynamic program).
    Backedges are ignored by construction — slicing never reorders. *)

open Uas_ir

(** Cut into exactly [stages] slices (possibly empty); concatenating
    the result yields the input.  @raise Ir_error when [stages <= 0]. *)
val partition : stages:int -> Stmt.t list -> Stmt.t list list

(** Sum of statement delays per slice. *)
val stage_costs : Stmt.t list list -> int list
