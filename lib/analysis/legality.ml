(* Legality of unroll-and-squash / unroll-and-jam for a nest and unroll
   factor DS (§4.1–§4.2).

   Control-flow requirements:
   - the inner body is a single basic block (apply if-conversion first);
   - pre and post are straight-line;
   - inner bounds are invariant across outer iterations (constant trip
     count requirement);
   - the inner index is not used by pre/post computations in a way that
     depends on its exit value only through [j = hi] (we simply allow it:
     the exit value is recomputed).

   Data requirements (§4.2, the three cases):
   - scalars: no outer-loop-carried scalar dependence.  A scalar that is
     upward-exposed at the outer-body level *and* written in the nest
     carries a value between outer iterations.  Recognized induction
     variables can be rewritten away (reported as [Needs_induction]).
   - arrays: for every dependent access pair, the outer distance must be
     0 (case 1) or have empty intersection with [-(DS-1), DS-1]
     (case 2); otherwise the transformation would reorder conflicting
     accesses (case 3) and is rejected.
   - the outer trip count must be a multiple of DS; otherwise peeling is
     required (reported, not fatal: [Transform.Peel] handles it). *)

open Uas_ir
module Sset = Stmt.Sset

type violation =
  | Inner_not_straight_line
  | Pre_post_not_straight_line
  | Inner_bounds_variant of string     (* offending scalar *)
  | Outer_carried_scalar of string
  | Outer_carried_array of string * Dependence.outer_distance
  | Inner_index_written
  | Outer_index_written
  | Non_unit_trip_unknown              (* outer trip count not static *)

let pp_violation ppf = function
  | Inner_not_straight_line ->
    Fmt.string ppf "inner loop body is not a single basic block"
  | Pre_post_not_straight_line ->
    Fmt.string ppf "outer-loop pre/post code is not straight-line"
  | Inner_bounds_variant v ->
    Fmt.pf ppf "inner loop bounds depend on %s, trip count not constant" v
  | Outer_carried_scalar v ->
    Fmt.pf ppf "scalar %s carries a dependence across outer iterations" v
  | Outer_carried_array (a, d) ->
    Fmt.pf ppf "array %s carries an outer dependence (%a)" a
      Dependence.pp_outer_distance d
  | Inner_index_written -> Fmt.string ppf "inner index is written in the body"
  | Outer_index_written -> Fmt.string ppf "outer index is written in the nest"
  | Non_unit_trip_unknown ->
    Fmt.string ppf "outer trip count is not statically known"

type verdict = {
  ok : bool;
  violations : violation list;
  needs_peel : int;          (** leftover outer iterations to peel off *)
  induction_rewrites : Induction.t list;
      (** induction variables that must be rewritten before transforming *)
}

let pp_verdict ppf v =
  if v.ok then
    Fmt.pf ppf "legal%s%s"
      (if v.needs_peel > 0 then
         Printf.sprintf " (peel %d iterations)" v.needs_peel
       else "")
      (if v.induction_rewrites <> [] then " (after induction rewrite)" else "")
  else Fmt.pf ppf "illegal: %a" Fmt.(list ~sep:(any "; ") pp_violation) v.violations

(* Scalars carrying values across outer iterations: upward-exposed over
   the whole outer body and also defined in it.  The inner index is not
   exposed by its own loop ([Def_use.of_stmt]); it only shows up here
   when pre-code genuinely reads its value from the previous outer
   iteration, which is a real carried dependence. *)
let outer_carried_scalars (nest : Loop_nest.pair) : Sset.t =
  let body =
    nest.Loop_nest.pre
    @ [ Stmt.For
          { index = nest.inner_index;
            lo = nest.inner_lo;
            hi = nest.inner_hi;
            step = nest.inner_step;
            body = nest.inner_body } ]
    @ nest.post
  in
  Def_use.loop_carried body

(* One violation per distinct (array, distance): several dependent
   pairs can share both, and would repeat the same text. *)
let check_arrays (nest : Loop_nest.pair) ~ds : violation list =
  List.filter_map
    (fun (x, _y, d) ->
      match d with
      | Dependence.No_dependence -> None
      | Dependence.Exact 0 -> None  (* case 1 *)
      | Dependence.Exact k ->
        if abs k > ds - 1 then None  (* case 2 *)
        else Some (Outer_carried_array (x.Dependence.acc_array, d))
      | Dependence.Within (lo, hi) ->
        (* case 2 needs [lo,hi] ∩ [-(ds-1), ds-1] ⊆ {0}; the interval is
           contiguous, so it is safe only when it is {0} or disjoint *)
        if (lo = 0 && hi = 0) || lo > ds - 1 || hi < -(ds - 1) then None
        else Some (Outer_carried_array (x.Dependence.acc_array, d))
      | Dependence.Any ->
        Some (Outer_carried_array (x.Dependence.acc_array, d)))
    (Dependence.all_pairs nest)
  |> List.fold_left
       (fun seen v -> if List.mem v seen then seen else v :: seen)
       []
  |> List.rev

(** Check the §4.1/§4.2 requirements for unrolling the outer loop of
    [nest] by [ds] with parallel data sets (shared by squash and jam). *)
let check (nest : Loop_nest.pair) ~ds : verdict =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if not (Stmt.is_straight_line nest.inner_body) then add Inner_not_straight_line;
  if not (Stmt.is_straight_line nest.pre && Stmt.is_straight_line nest.post)
  then add Pre_post_not_straight_line;
  (* invariant inner bounds: may not read anything written in the nest,
     nor the outer index *)
  let bound_vars =
    Sset.union (Expr.var_set nest.inner_lo) (Expr.var_set nest.inner_hi)
  in
  let written =
    Sset.add nest.outer_index (Stmt.defs (Loop_nest.all_stmts nest))
  in
  Sset.iter
    (fun v -> if Sset.mem v written then add (Inner_bounds_variant v))
    (Sset.inter bound_vars written);
  if Sset.mem nest.inner_index (Stmt.defs nest.inner_body) then
    add Inner_index_written;
  if Sset.mem nest.outer_index (Stmt.defs (Loop_nest.all_stmts nest)) then
    add Outer_index_written;
  (* induction variables are rewritable to closed forms: scalar and
     array checks run on the nest as it will look after the rewrite *)
  let ivs = Induction.find nest in
  let rewritten =
    List.fold_left
      (fun n iv ->
        Induction.rewrite_nest n iv ~base:(iv.Induction.iv_var ^ "@ivbase"))
      nest ivs
  in
  Sset.iter
    (fun v -> add (Outer_carried_scalar v))
    (outer_carried_scalars rewritten);
  let used_ivs =
    List.filter
      (fun iv -> Sset.mem iv.Induction.iv_var (outer_carried_scalars nest))
      ivs
  in
  (* array dependences *)
  List.iter add (check_arrays rewritten ~ds);
  (* peeling requirement *)
  let needs_peel =
    match Loop_nest.outer_trip_count nest with
    | Some trips -> trips mod ds
    | None ->
      add Non_unit_trip_unknown;
      0
  in
  let violations = List.rev !violations in
  { ok = violations = []; violations; needs_peel; induction_rewrites = used_ivs }

(** Convenience: is the nest transformable at factor [ds] after the
    automatic enabling rewrites (induction-variable elimination and
    peeling)? *)
let transformable (nest : Loop_nest.pair) ~ds : bool = (check nest ~ds).ok
