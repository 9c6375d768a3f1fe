(* Software pipelining of a single counted loop (§3.5, Figure 3.4).

   The kernel overlaps K consecutive iterations: at kernel step t,
   stage s executes iteration t - s.  The loop body is cut into K
   balanced contiguous slices (as in unroll-and-squash) and every
   scalar the body touches gets K rotating copies; the rotation hands
   each iteration's state to the next stage.  The iteration entering
   the pipe at step t binds its private index copy to [lo + t*step]
   before stage 0 runs.

   Legality (conservative):
   - the body is straight-line and does not carry scalars across
     iterations (no recurrences — those are exactly what blocks
     pipelining in Figure 2.1 and what unroll-and-squash addresses);
   - array dependences carried across iterations must have distance at
     least K, so that any stage split keeps producer before consumer;
   - static bounds, trip count >= K. *)

open Uas_ir
module Sset = Stmt.Sset
module Stage = Uas_dfg.Stage

type failure =
  | Not_straight_line
  | Carried_scalar of string
  | Carried_array of string
  | Too_few_iterations
  | Non_static_bounds

let pp_failure ppf = function
  | Not_straight_line -> Fmt.string ppf "loop body is not straight-line"
  | Carried_scalar v -> Fmt.pf ppf "scalar recurrence on %s" v
  | Carried_array a -> Fmt.pf ppf "array recurrence on %s within %d iterations" a 0
  | Too_few_iterations -> Fmt.string ppf "trip count below the stage count"
  | Non_static_bounds -> Fmt.string ppf "bounds are not static"

exception Pipeline_error of failure

let () =
  Printexc.register_printer (function
    | Pipeline_error f -> Some (Fmt.str "Pipeline_error: %a" pp_failure f)
    | _ -> None)

let failures (l : Stmt.loop) ~stages : failure list =
  let fs = ref [] in
  if not (Stmt.is_straight_line l.body) then fs := Not_straight_line :: !fs
  else begin
    Sset.iter
      (fun v -> fs := Carried_scalar v :: !fs)
      (Uas_analysis.Def_use.loop_carried l.body);
    (* array recurrences with distance < stages *)
    let body_defs = Stmt.defs l.body in
    let accs = Fusion.accesses_of l.body in
    List.iter
      (fun (a1, i1, w1) ->
        List.iter
          (fun (a2, i2, w2) ->
            if String.equal a1 a2 && (w1 || w2) then
              match
                Uas_dfg.Build.cross_distance ~inner_index:(Some l.index)
                  ~inner_step:l.step ~body_defs i1 i2
              with
              | Some d when d < stages -> fs := Carried_array a1 :: !fs
              | Some _ | None -> ())
          accs)
      accs
  end;
  (match (Expr.simplify l.lo, Expr.simplify l.hi) with
  | Expr.Int lo, Expr.Int hi ->
    let trips = if hi <= lo then 0 else (hi - lo + l.step - 1) / l.step in
    if trips < stages then fs := Too_few_iterations :: !fs
  | _ -> fs := Non_static_bounds :: !fs);
  List.rev !fs

(** Pipeline the loop with index [index] in [p] into [stages] stages. *)
let apply ?(delay_of = Opinfo.default_delay) (p : Stmt.program) ~index ~stages
    : Stmt.program =
  if stages <= 1 then p
  else begin
    let loop =
      let found = ref None in
      ignore
        (Stmt.rewrite_list
           (fun s ->
             (match s with
             | Stmt.For l when String.equal l.index index && !found = None ->
               found := Some l
             | _ -> ());
             [ s ])
           p.body);
      match !found with
      | Some l -> l
      | None -> Types.ir_error "no loop with index %s" index
    in
    (match failures loop ~stages with
    | [] -> ()
    | f :: _ -> raise (Pipeline_error f));
    let lo, hi =
      match (Expr.simplify loop.lo, Expr.simplify loop.hi) with
      | Expr.Int lo, Expr.Int hi -> (lo, hi)
      | _ -> raise (Pipeline_error Non_static_bounds)
    in
    let trips = if hi <= lo then 0 else (hi - lo + loop.step - 1) / loop.step in
    let body_scalars =
      Sset.add index (Sset.union (Stmt.defs loop.body) (Stmt.uses loop.body))
    in
    (* rotate only what the body touches and may change per iteration:
       everything it defines, plus the index *)
    let rotated =
      Sset.add index
        (Sset.inter body_scalars
           (Sset.union (Stmt.defs loop.body) (Sset.singleton index)))
    in
    let slices = Stage.partition ~delay_of ~stages loop.body in
    let on_copy s stmts =
      Expand.rename_in rotated (fun v -> Expand.stage_copy v s) stmts
    in
    let assign x e = Stmt.Assign (x, e) in
    let rotation =
      Sset.fold
        (fun v acc ->
          (assign (Expand.rot_temp v)
             (Expr.Var (Expand.stage_copy v (stages - 1)))
           :: List.concat
                (List.init (stages - 1) (fun k ->
                     let s = stages - 1 - k in
                     [ assign (Expand.stage_copy v s)
                         (Expr.Var (Expand.stage_copy v (s - 1))) ])))
          @ [ assign (Expand.stage_copy v 0) (Expr.Var (Expand.rot_temp v)) ]
          @ acc)
        rotated []
    in
    let slice_range lo_s hi_s =
      List.concat
        (List.init
           (max 0 (hi_s - lo_s + 1))
           (fun k -> on_copy (lo_s + k) (List.nth slices (lo_s + k))))
    in
    let kidx = Stmt.fresh_var p (index ^ "@pl") in
    let enter_expr offset =
      (* index value of the iteration entering the pipe at kernel step
         [kidx + offset] *)
      Expr.simplify
        (Expr.Binop
           ( Types.Add,
             Expr.Int (lo + (offset * loop.step)),
             Expr.Binop (Types.Mul, Expr.Var kidx, Expr.Int loop.step) ))
    in
    let prolog =
      List.concat
        (List.init (stages - 1) (fun t ->
             (assign (Expand.stage_copy index 0) (Expr.Int (lo + (t * loop.step)))
              :: slice_range 0 t)
             @ rotation))
    in
    let kernel_body =
      (assign (Expand.stage_copy index 0) (enter_expr (stages - 1))
       :: slice_range 0 (stages - 1))
      @ rotation
    in
    let kernel =
      Stmt.For
        { index = kidx;
          lo = Expr.Int 0;
          hi = Expr.Int (trips - (stages - 1));
          step = 1;
          body = kernel_body }
    in
    let epilog =
      List.concat
        (List.init (stages - 1) (fun e -> slice_range (e + 1) (stages - 1) @ rotation))
    in
    let restore =
      (* after the last epilog rotation, the final iteration's state sits
         in copy 0: restore the original names for code after the loop *)
      Sset.fold
        (fun v acc ->
          if String.equal v index then acc
          else assign v (Expr.Var (Expand.stage_copy v 0)) :: acc)
        rotated []
    in
    let exit_fix = [ assign index (Expr.Int (lo + (trips * loop.step))) ] in
    let replacement = prolog @ [ kernel ] @ epilog @ restore @ exit_fix in
    let decls =
      Expand.copy_decls p rotated (fun v ->
          Expand.rot_temp v :: List.init stages (Expand.stage_copy v))
      @ [ (kidx, Types.Tint) ]
    in
    let replaced = ref false in
    let rec go stmts =
      List.concat_map
        (fun s ->
          match s with
          | Stmt.For l when String.equal l.index index && not !replaced ->
            replaced := true;
            replacement
          | Stmt.For l -> [ Stmt.For { l with body = go l.body } ]
          | Stmt.If (c, t, e) -> [ Stmt.If (c, go t, go e) ]
          | Stmt.Assign _ | Stmt.Store _ -> [ s ])
        stmts
    in
    let body = go p.body in
    Stmt.add_locals { p with body } decls
  end

(* The non-raising entry point the rewrite registry builds on. *)
let apply_res ?delay_of (p : Stmt.program) ~index ~stages :
    (Stmt.program, failure) result =
  match apply ?delay_of p ~index ~stages with
  | q -> Ok q
  | exception Pipeline_error f -> Error f
