(** Scalar def/use facts over statement blocks, composing
    correctly through nested control flow (a [For]'s use summary is its
    body's upward-exposed reads, minus its own index). *)

module Sset = Uas_ir.Stmt.Sset

type stmt_du = { du_defs : Sset.t; du_uses : Sset.t }

(** Defs and upward-exposed uses of one statement. *)
val of_stmt : Uas_ir.Stmt.t -> stmt_du

(** Scalars read before any write, scanning the block in order.  For a
    loop body this is exactly what flows in from outside or from the
    previous iteration. *)
val upward_exposed : Uas_ir.Stmt.t list -> Sset.t

(** Scalar recurrences of a loop body: upward-exposed and defined. *)
val loop_carried : Uas_ir.Stmt.t list -> Sset.t

(** Scalars read by the program after the nest completes
    (conservative). *)
val used_outside_nest : Uas_ir.Stmt.program -> Loop_nest.pair -> Sset.t
