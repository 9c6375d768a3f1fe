(* Loop interchange (permutation, §3.3/§3.4): swap two adjacent loops
   of a perfectly nested pair.  Legal when the loops are fully
   permutable — conservatively, when no dependence is carried with a
   direction that interchange would reverse.

   One rule decides at every depth, the classic direction-vector test
   over the pair's maximal nest: swapping levels (k, k+1) is illegal
   exactly when some dependent access pair (Dependence.dependent_pairs,
   the listing squash legality uses too) has a distance vector whose
   leading nonzero entry sits at level k and whose level-(k+1) entry is
   negative, or when the dependence analysis cannot bound the
   distances.

   Interchange requires a *perfect* pair: the outer body is exactly the
   inner loop, and the bounds of each loop do not use the other's
   index. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Dependence = Uas_analysis.Dependence

type failure =
  | Not_perfect
  | Bounds_use_index
  | Carried_dependence of string

let pp_failure ppf = function
  | Not_perfect -> Fmt.string ppf "the nest is not perfectly nested"
  | Bounds_use_index -> Fmt.string ppf "a loop bound uses the other index"
  | Carried_dependence a ->
    Fmt.pf ppf "array %s carries a dependence that interchange would reverse" a

(* The shape requirements of a pair. *)
let structural (nest : Loop_nest.pair) : failure option =
  if nest.Loop_nest.pre <> [] || nest.post <> [] then Some Not_perfect
  else if
    Expr.mem_var nest.outer_index nest.inner_lo
    || Expr.mem_var nest.outer_index nest.inner_hi
    || Expr.mem_var nest.inner_index nest.outer_lo
    || Expr.mem_var nest.inner_index nest.outer_hi
  then Some Bounds_use_index
  else None

(* Direction-vector test for the pair at levels [level]/[level+1] of a
   nest, over the nest's dependent access pairs. *)
let deep_check (n : Loop_nest.t) ~level : failure option =
  let reversed v =
    let rec lead k =
      if k < Array.length v && v.(k) = 0 then lead (k + 1) else k
    in
    lead 0 = level && level + 1 < Array.length v && v.(level + 1) < 0
  in
  List.find_map
    (fun ((x : Dependence.access), y) ->
      match Dependence.distance_vectors n x y with
      | Some vs when not (List.exists reversed vs) -> None
      | Some _ | None -> Some (Carried_dependence x.Dependence.acc_array))
    (Dependence.dependent_pairs (Dependence.nest_accesses n))

(** Legality at the pair headed by [outer_index]: the shape
    requirements, then the direction-vector test at the pair's level of
    its maximal nest.  @raise Not_found when absent. *)
let check_at (p : Stmt.program) ~outer_index : failure option =
  match structural (Loop_nest.find_by_outer_index p outer_index) with
  | Some f -> Some f
  | None -> (
    match Loop_nest.find_nest_opt p outer_index with
    | None -> Some Not_perfect
    | Some n -> (
      match Loop_nest.level_position n outer_index with
      | None -> Some Not_perfect
      | Some level -> deep_check n ~level))

(** Interchange the pair identified by its outer index inside [p], the
    failure modes as data. *)
let apply (p : Stmt.program) ~outer_index :
    (Stmt.program, failure) result =
  let nest = Loop_nest.find_by_outer_index p outer_index in
  match check_at p ~outer_index with
  | Some f -> Error f
  | None ->
    let swapped =
      Stmt.For
        { index = nest.inner_index;
          lo = nest.inner_lo;
          hi = nest.inner_hi;
          step = nest.inner_step;
          body =
            [ Stmt.For
                { index = nest.outer_index;
                  lo = nest.outer_lo;
                  hi = nest.outer_hi;
                  step = nest.outer_step;
                  body = nest.inner_body } ] }
    in
    Ok (Loop_nest.replace p ~outer_index [ swapped ])
