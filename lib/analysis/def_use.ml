(* Scalar def/use facts for straight-line statement lists (the shape of
   inner-loop bodies after if-conversion).

   The facts the squash/jam transformations need:
   - [upward_exposed]: scalars read before any write in the block — when
     the block is a loop body, these are exactly the values that flow in
     from outside or from the previous iteration;
   - [defined]: scalars written by the block;
   - [loop_carried]: upward-exposed AND defined — scalar recurrences of
     the loop (they become DFG backedges);
   - [used_outside_nest]: scalars whose value may be observed after the
     nest (squash and jam read it). *)

open Uas_ir
module Sset = Stmt.Sset

type stmt_du = { du_defs : Sset.t; du_uses : Sset.t }

(** Defs/uses summary of one statement.  [du_uses] is the set of scalars
    the statement may read *before* defining them itself (its upward-
    exposed reads), so block-level liveness composes correctly through
    nested control flow. *)
let rec of_stmt (s : Stmt.t) : stmt_du =
  match s with
  | Stmt.Assign (x, e) -> { du_defs = Sset.singleton x; du_uses = Expr.var_set e }
  | Stmt.Store (_, i, e) ->
    { du_defs = Sset.empty;
      du_uses = Sset.union (Expr.var_set i) (Expr.var_set e) }
  | Stmt.If (c, t, f) ->
    (* either branch may run: defs union (conservative as a MAY-def
       summary), exposed uses union plus the condition *)
    { du_defs = Stmt.defs (t @ f);
      du_uses =
        Sset.union (Expr.var_set c)
          (Sset.union (upward_exposed t) (upward_exposed f)) }
  | Stmt.For l ->
    (* the loop defines its own index before the body can read it, and
       body-internal reads that follow a body def are not exposed; a
       read feeding from the previous iteration IS exposed (the first
       iteration reads the incoming value) *)
    { du_defs = Sset.add l.index (Stmt.defs l.body);
      du_uses =
        Sset.remove l.index
          (Sset.union
             (Sset.union (Expr.var_set l.lo) (Expr.var_set l.hi))
             (upward_exposed l.body)) }

(** Scalars read before any write, scanning the block in order. *)
and upward_exposed (stmts : Stmt.t list) : Sset.t =
  let _, exposed =
    List.fold_left
      (fun (written, exposed) s ->
        let du = of_stmt s in
        let fresh_uses = Sset.diff du.du_uses written in
        (Sset.union written du.du_defs, Sset.union exposed fresh_uses))
      (Sset.empty, Sset.empty) stmts
  in
  exposed

let defined (stmts : Stmt.t list) : Sset.t = Stmt.defs stmts

(** Scalar recurrences when [stmts] is a loop body: read (possibly from
    the previous iteration) and also written. *)
let loop_carried (stmts : Stmt.t list) : Sset.t =
  Sset.inter (upward_exposed stmts) (defined stmts)

(** Scalars of the nest that are read by the rest of the program after
    the nest completes.  Conservative: any scalar used anywhere outside
    the given outer loop (we do not track control flow past the nest). *)
let used_outside_nest (p : Stmt.program) (nest : Loop_nest.pair) : Sset.t =
  let nest_stmt = Loop_nest.pair_to_stmt nest in
  let rec strip stmts =
    List.concat_map
      (fun s ->
        if Stmt.equal s nest_stmt then []
        else
          match s with
          | Stmt.For l -> [ Stmt.For { l with body = strip l.body } ]
          | Stmt.If (c, t, e) -> [ Stmt.If (c, strip t, strip e) ]
          | Stmt.Assign _ | Stmt.Store _ -> [ s ])
      stmts
  in
  Stmt.uses (strip p.body)
