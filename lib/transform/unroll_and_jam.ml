(* Unroll-and-jam (§3.4, Figure 3.3): unroll the outer loop by DS and
   fuse the resulting inner loops back into one.  We emit the fused form
   directly: the new inner body is the concatenation of the DS data
   sets' bodies, each operating on its own expanded copies [v@u<d>] of
   the nest's scalars; the inner index is shared.

   Legality is the same §4.2 condition as unroll-and-squash (the paper:
   "unroll-and-squash can be applied to any set of 2 nested loops that
   can be successfully unroll-and-jammed"). *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality
module Sset = Stmt.Sset

type outcome = {
  program : Stmt.program;
  new_inner_body : Stmt.t list;
  ds : int;
}

(* The transformation proper, on a nest the §4.2 prologue has made
   legal. *)
let jam (p : Stmt.program) (nest : Loop_nest.pair) ~ds : outcome =
  let i = nest.Loop_nest.outer_index and j = nest.inner_index in
  let versioned = Sset.remove j (Expand.versioned_scalars nest) in
  let restore_set =
    Sset.remove i
      (Sset.remove j
         (Sset.inter (Expand.versioned_scalars nest)
            (Uas_analysis.Def_use.used_outside_nest p nest)))
  in
  let copy d stmts =
    Expand.rename_in versioned (fun v -> Expand.unroll_copy v d) stmts
  in
  let pre_d d =
    Stmt.Assign
      ( Expand.unroll_copy i d,
        Expr.simplify
          (Expr.Binop (Types.Add, Expr.Var i, Expr.Int (d * nest.outer_step))) )
    :: copy d nest.pre
  in
  let new_body = List.concat (List.init ds (fun d -> copy d nest.inner_body)) in
  let inner =
    Stmt.For
      { index = j;
        lo = nest.inner_lo;
        hi = nest.inner_hi;
        step = nest.inner_step;
        body = new_body }
  in
  let post_d d = copy d nest.post in
  let restore =
    Sset.fold
      (fun v acc ->
        Stmt.Assign (v, Expr.Var (Expand.unroll_copy v (ds - 1))) :: acc)
      restore_set []
  in
  let outer_body =
    List.concat (List.init ds pre_d)
    @ [ inner ]
    @ List.concat (List.init ds post_d)
    @ restore
  in
  let new_outer =
    Stmt.For
      { index = i;
        lo = nest.outer_lo;
        hi = nest.outer_hi;
        step = nest.outer_step * ds;
        body = outer_body }
  in
  let decls =
    Expand.copy_decls p versioned (fun v -> List.init ds (Expand.unroll_copy v))
  in
  let p = Loop_nest.replace p ~outer_index:i [ new_outer ] in
  let p = Stmt.add_locals p decls in
  { program = p; new_inner_body = new_body; ds }

let apply (p : Stmt.program) (nest : Loop_nest.pair) ~ds :
    (outcome, Legality.verdict) result =
  Result.map (fun (p, nest) -> jam p nest ~ds) (Peel.enable p nest ~ds)
