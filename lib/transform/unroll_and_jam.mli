(** Unroll-and-jam (§3.4, Figure 3.3): unroll the outer loop by DS and
    fuse the inner loops back into one.  The fused body concatenates
    the DS data sets' bodies on private scalar copies; the inner index
    is shared.  Operator count and memory references scale by DS. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality

type outcome = {
  program : Stmt.program;
  new_inner_body : Stmt.t list;
  ds : int;
}

(** Apply unroll-and-jam by [ds]; enabling rewrites are automatic, as
    for {!Squash.apply}.  [Error] carries the illegality verdict.
    @raise Ir_error when [ds <= 0]. *)
val apply :
  Stmt.program -> Loop_nest.pair -> ds:int -> (outcome, Legality.verdict) result
