(* Loop flattening (coalescing), one of the Nimble front-end
   transformations listed in §5.2: a perfect adjacent loop pair with
   static bounds collapses into a single loop over the combined
   iteration space, with the original indices recomputed by
   division/modulus.  The pair may sit at any level of a deeper nest
   (the deeper loops ride along inside [inner_body]), so repeated
   flattening reduces any perfect nest to the adjacent-pair shape squash
   needs.

     for (i = lo_i; i < hi_i; i++)
       for (j = lo_j; j < hi_j; j++) S(i, j);
   =>
     for (t = 0; t < trips_i * trips_j; t++) {
       i = lo_i + (t / trips_j) * step_i;
       j = lo_j + (t % trips_j) * step_j;
       S(i, j);
     }

   Always legal for a perfect nest (the traversal order is unchanged);
   useful to concentrate all execution time in one kernel loop at the
   cost of the index arithmetic. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest

type failure = Not_perfect | Non_static_bounds

let pp_failure ppf = function
  | Not_perfect -> Fmt.string ppf "the nest is not perfectly nested"
  | Non_static_bounds -> Fmt.string ppf "bounds are not static"

let static_bounds lo hi step =
  match (Expr.simplify lo, Expr.simplify hi) with
  | Expr.Int l, Expr.Int h ->
    Some (l, if h <= l then 0 else (h - l + step - 1) / step)
  | _ -> None

(** Flatten the nest with this outer index inside [p], also returning
    the fresh flattened index (callers maintaining a current-kernel
    pointer need it).  The flattened index is freshly named and
    declared; the original indices become plain scalars recomputed at
    the top of the body.
    @raise Not_found when absent. *)
let apply (p : Stmt.program) ~outer_index :
    (Stmt.program * string, failure) result =
  let nest = Loop_nest.find_by_outer_index p outer_index in
  match
    ( nest.Loop_nest.pre = [] && nest.post = [],
      static_bounds nest.outer_lo nest.outer_hi nest.outer_step,
      static_bounds nest.inner_lo nest.inner_hi nest.inner_step )
  with
  | false, _, _ -> Error Not_perfect
  | true, None, _ | true, _, None -> Error Non_static_bounds
  | true, Some (lo_i, trips_i), Some (lo_j, trips_j) ->
  let t = Stmt.fresh_var p (nest.outer_index ^ "@flat") in
  let recompute =
    [ Stmt.Assign
        ( nest.outer_index,
          Expr.simplify
            (Expr.Binop
               ( Types.Add,
                 Expr.Int lo_i,
                 Expr.Binop
                   ( Types.Mul,
                     Expr.Binop (Types.Div, Expr.Var t, Expr.Int (max 1 trips_j)),
                     Expr.Int nest.outer_step ) )) );
      Stmt.Assign
        ( nest.inner_index,
          Expr.simplify
            (Expr.Binop
               ( Types.Add,
                 Expr.Int lo_j,
                 Expr.Binop
                   ( Types.Mul,
                     Expr.Binop (Types.Mod, Expr.Var t, Expr.Int (max 1 trips_j)),
                     Expr.Int nest.inner_step ) )) ) ]
  in
  let flattened =
    Stmt.For
      { index = t;
        lo = Expr.Int 0;
        hi = Expr.Int (trips_i * trips_j);
        step = 1;
        body = recompute @ nest.inner_body }
  in
  (* the original indices keep their loop exit values; the inner index
     only ran if the outer loop did *)
  let exit_fixes =
    Stmt.Assign
      (nest.outer_index, Expr.Int (lo_i + (trips_i * nest.outer_step)))
    ::
    (if trips_i > 0 then
       [ Stmt.Assign
           (nest.inner_index, Expr.Int (lo_j + (trips_j * nest.inner_step))) ]
     else [])
  in
  let p =
    Loop_nest.replace p ~outer_index ((flattened :: exit_fixes))
  in
  Ok (Stmt.add_locals p [ (t, Types.Tint) ], t)
