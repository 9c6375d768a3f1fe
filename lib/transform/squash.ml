(* Unroll-and-squash (Chapter 4), the paper's contribution.

   Given an adjacent loop pair (any level of a nest, via the pair
   view), outer trip count M (a multiple of DS), inner trip count N
   (static, >= 1), and unroll factor DS:

   - the inner body is cut into DS contiguous stage slices, balanced by
     estimated delay (Stage.partition — the "pipeline the DFG ignoring
     backedges" step expressed on the software side);
   - every scalar the body touches gets DS rotating copies [v@s0 ..
     v@s{DS-1}]; stage s always executes on copy s, and a rotation at
     the end of each squashed iteration hands every data set's whole
     scalar state to the next stage — copy DS-1 wraps to copy 0, which
     is exactly the round-robin of Figure 2.4 and realizes the
     "stretched" backedges of Figure 4.2 as register moves;
   - the outer loop advances by DS*step; the DS data sets' pre/post
     blocks are unrolled into private staging copies [v@pre<d>],
     [v@post<d>];
   - a prolog fills the pipeline (data set d is injected into copy 0
     just before squashed step d), the steady-state inner loop runs
     DS*N - (DS-1) iterations (the count in §4.4), and an epilog drains
     it, extracting data set d right after its last stage completes.

   Correctness argument (validated exhaustively by the test suite): a
   data set's scalar state lives in exactly one copy at every step and
   rotates forward once per step, so it experiences the DS slices in
   program order with its own state — the sequential semantics.  Memory
   accesses of one data set keep their program order; accesses of
   different data sets interleave, which the §4.2 legality cases allow. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality
module Stage = Uas_dfg.Stage
module Sset = Stmt.Sset

type error =
  | Illegal of Legality.verdict
  | Needs_static_trip_counts
  | Inner_loop_empty

let pp_error ppf = function
  | Illegal v -> Legality.pp_verdict ppf v
  | Needs_static_trip_counts ->
    Fmt.string ppf "unroll-and-squash requires static loop bounds"
  | Inner_loop_empty -> Fmt.string ppf "inner loop runs zero iterations"

(** Result of the transformation, with the structural facts the
    hardware estimator and the tests consume. *)
type outcome = {
  program : Stmt.program;
  new_inner_index : string;      (** index of the squashed steady loop *)
  new_inner_body : Stmt.t list;  (** steady-state body incl. rotation *)
  stages : Stmt.t list list;     (** the DS slices of the original body *)
  rotated : string list;         (** base scalars given rotating copies *)
  ds : int;
}

let assign x e = Stmt.Assign (x, e)

(* Rename body statements to a stage's copy space. *)
let on_copy (w : Sset.t) (s : int) (stmts : Stmt.t list) : Stmt.t list =
  Expand.rename_in w (fun v -> Expand.stage_copy v s) stmts

(* The transformation proper, on a nest the §4.2 prologue has made
   legal and whose inner loop runs [n_inner >= 1] times. *)
let squash (p : Stmt.program) (nest : Loop_nest.pair) ~ds ~n_inner : outcome =
  (* 2. classify scalars *)
  let i = nest.Loop_nest.outer_index and j = nest.inner_index in
  let versioned = Expand.versioned_scalars nest in
  let body_scalars = Stmt.scalars nest.inner_body in
  let rotated = Sset.inter body_scalars versioned in
  let body_livein = Sset.inter (Uas_analysis.Def_use.upward_exposed nest.inner_body) versioned in
  let body_defs = Stmt.defs nest.inner_body in
  (* scalars of the nest whose value may be observed after the nest:
     they must be restored from the last data set's copies *)
  let restore_set =
    Sset.remove nest.outer_index
      (Sset.inter versioned (Uas_analysis.Def_use.used_outside_nest p nest))
  in
  let post_uses =
    Sset.union restore_set (Sset.inter (Stmt.uses nest.post) versioned)
  in
  (* 3. stage slices *)
  let stages = Stage.partition ~stages:ds nest.inner_body in
  (* 4. generated code pieces *)
  let int_e n = Expr.Int n in
  let pre_d d =
    (* data set d's private outer-index value, then its pre code *)
    assign (Expand.pre_copy i d)
      (Expr.simplify
         (Expr.Binop
            (Types.Add, Expr.Var i, int_e (d * nest.outer_step))))
    :: Expand.rename_in versioned (fun v -> Expand.pre_copy v d) nest.pre
  in
  let inject d =
    (* load data set d's live-ins into copy 0 and start its j at lo *)
    Sset.fold
      (fun v acc ->
        if String.equal v j then
          assign (Expand.stage_copy j 0) nest.inner_lo :: acc
        else
          assign (Expand.stage_copy v 0) (Expr.Var (Expand.pre_copy v d)) :: acc)
      body_livein
      (if Sset.mem j body_livein then []
       else if Sset.mem j rotated then
         [ assign (Expand.stage_copy j 0) nest.inner_lo ]
       else [])
  in
  let rotation =
    if ds = 1 then []
    else
      Sset.fold
        (fun v acc ->
          (assign (Expand.rot_temp v) (Expr.Var (Expand.stage_copy v (ds - 1)))
           :: List.concat
                (List.init (ds - 1) (fun k ->
                     let s = ds - 1 - k in
                     [ assign (Expand.stage_copy v s)
                         (Expr.Var (Expand.stage_copy v (s - 1))) ])))
          @ [ assign (Expand.stage_copy v 0) (Expr.Var (Expand.rot_temp v)) ]
          @ acc)
        rotated []
  in
  let advance_j =
    if Sset.mem j rotated then
      [ assign (Expand.stage_copy j 0)
          (Expr.Binop
             ( Types.Add,
               Expr.Var (Expand.stage_copy j 0),
               int_e nest.inner_step )) ]
    else []
  in
  let slices_range lo hi =
    (* stage s's slice on copy s, for s in [lo, hi] *)
    List.concat
      (List.init
         (max 0 (hi - lo + 1))
         (fun k ->
           let s = lo + k in
           on_copy rotated s (List.nth stages s)))
  in
  let extract d =
    (* hand data set d's observable values to its post staging copies *)
    let j_exit =
      Expand.index_exit_value ~lo:nest.inner_lo ~hi:nest.inner_hi
        ~step:nest.inner_step
    in
    Sset.fold
      (fun v acc ->
        let rhs =
          if String.equal v j then j_exit
          else if Sset.mem v body_defs then Expr.Var (Expand.stage_copy v 0)
          else if String.equal v i then Expr.Var (Expand.pre_copy i d)
          else Expr.Var (Expand.pre_copy v d)
        in
        assign (Expand.post_copy v d) rhs :: acc)
      post_uses []
  in
  let post_d d =
    Expand.rename_in versioned (fun v -> Expand.post_copy v d) nest.post
  in
  let restore =
    (* original names take the last data set's final values, so code
       after the nest observes the sequential semantics *)
    Sset.fold
      (fun v acc ->
        assign v (Expr.Var (Expand.post_copy v (ds - 1))) :: acc)
      restore_set []
  in
  (* 5. assemble the new outer body *)
  let prolog =
    List.concat
      (List.init (ds - 1) (fun t ->
           slices_range 0 t @ rotation @ inject (t + 1)))
  in
  let steady_count = (ds * n_inner) - (ds - 1) in
  let new_index =
    Stmt.fresh_var p ~avoid:(Sset.elements versioned) (j ^ "@sq")
  in
  let steady_body = slices_range 0 (ds - 1) @ rotation @ advance_j in
  let steady =
    Stmt.For
      { index = new_index;
        lo = int_e 0;
        hi = int_e steady_count;
        step = 1;
        body = steady_body }
  in
  let epilog =
    List.concat
      (List.init (ds - 1) (fun e -> extract e @ slices_range (e + 1) (ds - 1) @ rotation))
    @ extract (ds - 1)
  in
  let outer_body =
    List.concat (List.init ds pre_d)
    @ inject 0 @ prolog @ [ steady ] @ epilog
    @ List.concat (List.init ds post_d)
    @ restore
  in
  let new_outer =
    Stmt.For
      { index = nest.outer_index;
        lo = nest.outer_lo;
        hi = nest.outer_hi;
        step = nest.outer_step * ds;
        body = outer_body }
  in
  (* 6. declarations for every generated copy *)
  let decls =
    Expand.copy_decls p rotated (fun v ->
        Expand.rot_temp v :: List.init ds (Expand.stage_copy v))
    @ Expand.copy_decls p versioned (fun v ->
          List.init ds (Expand.pre_copy v) @ List.init ds (Expand.post_copy v))
    @ [ (new_index, Types.Tint) ]
  in
  let p = Loop_nest.replace p ~outer_index:nest.outer_index [ new_outer ] in
  let p = Stmt.add_locals p decls in
  { program = p;
    new_inner_index = new_index;
    new_inner_body = steady_body;
    stages;
    rotated = Sset.elements rotated;
    ds }

(* 1. legality and its enabling rewrites (the §4.2 prologue shared
   with unroll-and-jam), then the static trip counts; steps 2-6 are
   [squash] above *)
let apply (p : Stmt.program) (nest : Loop_nest.pair) ~ds :
    (outcome, error) result =
  match Peel.enable p nest ~ds with
  | Error verdict -> Error (Illegal verdict)
  | Ok (p, nest) -> (
    match
      (Loop_nest.inner_trip_count nest, Loop_nest.outer_trip_count nest)
    with
    | None, _ -> Error Needs_static_trip_counts
    | Some n, _ when n <= 0 -> Error Inner_loop_empty
    | Some _, None -> Error Needs_static_trip_counts
    | Some n_inner, Some _ -> Ok (squash p nest ~ds ~n_inner))
