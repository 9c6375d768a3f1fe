(* Loop interchange (permutation, §3.3/§3.4): swap two adjacent loops
   of a perfectly nested pair.  Legal when the loops are fully
   permutable — conservatively, when no dependence is carried with a
   direction that interchange would reverse.

   For a pair whose inner body is loop-free we accept the common safe
   cases:
   - no statement of the body writes memory, or
   - every dependent access pair is independent across both loops
     (checked with the affine machinery of [Dependence] applied twice,
     once per loop orientation).

   For a pair buried in a deeper nest, the affine pair forms cannot see
   the deeper indices; there the classic direction-vector test decides:
   swapping levels (k, k+1) is illegal exactly when some dependence has
   a distance vector whose leading nonzero entry sits at level k and
   whose level-(k+1) entry is negative.

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

exception Interchange_error of failure

let () =
  Printexc.register_printer (function
    | Interchange_error f -> Some (Fmt.str "Interchange_error: %a" pp_failure f)
    | _ -> None)

(* Shape requirements shared by both dependence tests. *)
let structural (nest : Loop_nest.pair) : failure option =
  if nest.Loop_nest.pre <> [] || nest.post <> [] then Some Not_perfect
  else if
    Expr.mem_var nest.outer_index nest.inner_lo
    || Expr.mem_var nest.outer_index nest.inner_hi
    || Expr.mem_var nest.inner_index nest.outer_lo
    || Expr.mem_var nest.inner_index nest.outer_hi
  then Some Bounds_use_index
  else None

let check (nest : Loop_nest.pair) : failure option =
  match structural nest with
  | Some f -> Some f
  | None ->
    (* conservative dependence test: every pair that may conflict must
       conflict only at distance (0, 0) — independence in both the outer
       direction and, by symmetry of the swapped nest, the inner one *)
    let swapped =
      { nest with
        Loop_nest.outer_index = nest.inner_index;
        outer_lo = nest.inner_lo;
        outer_hi = nest.inner_hi;
        outer_step = nest.inner_step;
        inner_index = nest.outer_index;
        inner_lo = nest.outer_lo;
        inner_hi = nest.outer_hi;
        inner_step = nest.outer_step }
    in
    let offending n =
      List.find_map
        (fun ((x : Dependence.access), _, d) ->
          match d with
          | Dependence.No_dependence | Dependence.Exact 0 -> None
          | Dependence.Within (0, 0) -> None
          | _ -> Some x.Dependence.acc_array)
        (Dependence.all_pairs n)
    in
    (match offending nest with
    | Some a -> Some (Carried_dependence a)
    | None -> (
      match offending swapped with
      | Some a -> Some (Carried_dependence a)
      | None -> None))

(* Direction-vector test for a pair at level [k] of a deeper nest. *)
let deep_check (n : Uas_analysis.Loop_nest.t) ~level : failure option =
  let accs = Dependence.nest_accesses n in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) (x :: rest) @ pairs rest
  in
  List.find_map
    (fun ((x : Dependence.access), (y : Dependence.access)) ->
      if
        (not (String.equal x.Dependence.acc_array y.Dependence.acc_array))
        || not (x.Dependence.acc_is_write || y.Dependence.acc_is_write)
      then None
      else
        match Dependence.distance_vectors n x y with
        | None -> Some (Carried_dependence x.Dependence.acc_array)
        | Some vs ->
          if
            List.exists
              (fun v ->
                let lead = ref (-1) in
                Array.iteri
                  (fun i d -> if d <> 0 && !lead < 0 then lead := i)
                  v;
                !lead = level
                && level + 1 < Array.length v
                && v.(level + 1) < 0)
              vs
          then Some (Carried_dependence x.Dependence.acc_array)
          else None)
    (pairs accs)

(** Depth-aware legality at the pair headed by [outer_index]: the
    affine pair test when its inner body is loop-free, the
    direction-vector test when it is buried in a deeper nest.
    @raise Not_found when absent. *)
let check_at (p : Stmt.program) ~outer_index : failure option =
  let nest = Loop_nest.find_by_outer_index p outer_index in
  match Loop_nest.depth_at p outer_index with
  | Some d when d > 2 -> (
    match structural nest with
    | Some f -> Some f
    | None -> (
      match Loop_nest.find_nest_opt p outer_index with
      | None -> Some Not_perfect
      | Some n ->
        let level =
          let rec pos k = function
            | [] -> 0
            | lv :: rest ->
              if String.equal lv.Uas_analysis.Loop_nest.l_index outer_index
              then k
              else pos (k + 1) rest
          in
          pos 0 n.Uas_analysis.Loop_nest.levels
        in
        deep_check n ~level))
  | _ -> check nest

(** Interchange the pair identified by its outer index inside [p], the
    failure modes as data. *)
let apply_res (p : Stmt.program) ~outer_index :
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

(** [apply_res], raising the failure. *)
let apply (p : Stmt.program) ~outer_index : Stmt.program =
  match apply_res p ~outer_index with
  | Ok q -> q
  | Error f -> raise (Interchange_error f)
