(** Loop peeling (§4.2): execute [M mod DS] outer iterations separately
    so the remaining count divides the unroll factor. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality

(** Peel the last [iterations] outer iterations of the nest; the
    (possibly zero-trip) loop is kept in place so callers can still
    rewrite it.  Static outer bounds required.
    @raise Ir_error on bad counts or dynamic bounds. *)
val peel_back :
  Stmt.program -> Loop_nest.pair -> iterations:int -> Stmt.program * Loop_nest.pair

(** The §4.2 prologue unroll-and-squash and unroll-and-jam share:
    {!Legality.check} at [ds], then the induction-variable rewrites the
    verdict lists, then {!peel_back} of [M mod DS] outer iterations.
    Returns the rewritten program and nest, or the failing verdict.
    @raise Ir_error when [ds <= 0]. *)
val enable :
  Stmt.program ->
  Loop_nest.pair ->
  ds:int ->
  (Stmt.program * Loop_nest.pair, Legality.verdict) result
