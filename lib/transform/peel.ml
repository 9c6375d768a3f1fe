(* Loop peeling (§4.2: "M mod DS iterations of the outer loop may be
   executed independently from the remaining M - (M mod DS)").

   We peel from the back: the outer loop keeps its first
   M - k iterations and the last k are emitted as straight copies after
   it, each preceded by an assignment of the index value (the index is
   an ordinary scalar).  Requires static outer bounds. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality
module Induction = Uas_analysis.Induction

(** Peel the last [iterations] outer iterations of [nest] inside [p].
    Returns the updated program and the shrunken nest. *)
let peel_back (p : Stmt.program) (nest : Loop_nest.pair) ~iterations :
    Stmt.program * Loop_nest.pair =
  if iterations < 0 then Types.ir_error "cannot peel %d iterations" iterations;
  if iterations = 0 then (p, nest)
  else
    match Loop_nest.outer_trip_count nest with
    | None -> Types.ir_error "peeling requires static outer bounds"
    | Some trips ->
      if iterations > trips then
        Types.ir_error "cannot peel %d of %d iterations" iterations trips;
      let lo =
        match Expr.simplify nest.Loop_nest.outer_lo with
        | Expr.Int n -> n
        | _ -> Types.ir_error "peeling requires static outer bounds"
      in
      let keep = trips - iterations in
      let new_hi = lo + (keep * nest.outer_step) in
      let nest' = { nest with Loop_nest.outer_hi = Expr.Int new_hi } in
      let copy k =
        let iv = lo + ((keep + k) * nest.outer_step) in
        Stmt.Assign (nest.outer_index, Expr.Int iv)
        :: nest.pre
        @ [ Stmt.For
              { index = nest.inner_index;
                lo = nest.inner_lo;
                hi = nest.inner_hi;
                step = nest.inner_step;
                body = nest.inner_body } ]
        @ nest.post
      in
      let replacement =
        (* the zero-trip loop is kept when everything peels away, so
           callers can still locate and rewrite the nest; the final
           assignment restores the index exit value of the full loop *)
        (Loop_nest.pair_to_stmt nest' :: List.concat (List.init iterations copy))
        @ [ Stmt.Assign
              (nest.outer_index, Expr.Int (lo + (trips * nest.outer_step))) ]
      in
      let p = Loop_nest.replace p ~outer_index:nest.outer_index replacement in
      (p, nest')

(* Legality first; the rewrites it calls for run only on a legal nest,
   induction variables before the peel (the peel copies the rewritten
   body). *)
let enable (p : Stmt.program) (nest : Loop_nest.pair) ~ds :
    (Stmt.program * Loop_nest.pair, Legality.verdict) result =
  if ds <= 0 then Types.ir_error "unroll factor must be positive";
  let verdict = Legality.check nest ~ds in
  if not verdict.Legality.ok then Error verdict
  else
    let p, nest =
      List.fold_left
        (fun (p, nest) iv -> Induction.rewrite p nest iv)
        (p, nest) verdict.Legality.induction_rewrites
    in
    Ok (peel_back p nest ~iterations:verdict.Legality.needs_peel)
