(* Loop interchange (permutation, §3.3/§3.4): swap two adjacent loops
   of a perfectly nested pair.  Legal when the loops are fully
   permutable — conservatively, when no dependence is carried with a
   direction that interchange would reverse.

   One rule decides at every depth, the classic direction-vector test
   over the pair's maximal nest: swapping levels (k, k+1) is illegal
   exactly when some dependence has a distance vector whose leading
   nonzero entry sits at level k and whose level-(k+1) entry is
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

exception Interchange_error of failure

let () =
  Printexc.register_printer (function
    | Interchange_error f -> Some (Fmt.str "Interchange_error: %a" pp_failure f)
    | _ -> None)

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
   nest. *)
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
