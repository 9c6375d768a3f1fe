(** Loop peeling (§4.2): execute [M mod DS] outer iterations separately
    so the remaining count divides the unroll factor. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest

(** Peel the last [iterations] outer iterations of the nest; the
    (possibly zero-trip) loop is kept in place so callers can still
    rewrite it.  Static outer bounds required.
    @raise Ir_error on bad counts or dynamic bounds. *)
val peel_back :
  Stmt.program -> Loop_nest.pair -> iterations:int -> Stmt.program * Loop_nest.pair
