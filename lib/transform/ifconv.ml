(* If-conversion (§4.2): turn conditionals whose arms contain only
   scalar assignments into straight-line [Select] code, so the inner
   loop becomes the single basic block the squash/jam requirements
   demand.

   For each arm, assignments are composed symbolically: after
   [x = e1; y = f(x)] the arm's effect is {x -> e1, y -> f(e1)}.  The
   condition is bound to a fresh temporary once, and every variable
   defined by either arm gets [v = select(c, v_then, v_else)].  Arms
   containing stores, loops or nested unconvertible ifs are left alone
   (this transformation is best-effort; [Legality] reports what is
   still blocking). *)

open Uas_ir
module Smap = Map.Make (String)
module Sset = Stmt.Sset

(* The net effect of a pure-assignment arm, as a substitution map. *)
let arm_effect (stmts : Stmt.t list) : Expr.t Smap.t option =
  let step acc s =
    match (acc, s) with
    | None, _ -> None
    | Some m, Stmt.Assign (x, e) ->
      let e' =
        Expr.subst_vars (fun v -> Smap.find_opt v m) e
      in
      Some (Smap.add x e' m)
    | Some _, (Stmt.Store _ | Stmt.If _ | Stmt.For _) -> None
  in
  List.fold_left step (Some Smap.empty) stmts

let convert_if ~fresh (c : Expr.t) (t : Stmt.t list) (e : Stmt.t list) :
    Stmt.t list option =
  match (arm_effect t, arm_effect e) with
  | Some mt, Some me ->
    let cvar = fresh () in
    let defined =
      Sset.union
        (Sset.of_list (List.map fst (Smap.bindings mt)))
        (Sset.of_list (List.map fst (Smap.bindings me)))
    in
    let selects =
      (* each converted variable reads the PRE-if values of everything,
         because arm effects were composed symbolically; assignment
         order between converted variables must not interfere, so
         selects write fresh shadow names first, then commit *)
      let shadow v = v ^ "@ifc" in
      let compute =
        Sset.fold
          (fun v acc ->
            let tv = Option.value ~default:(Expr.Var v) (Smap.find_opt v mt) in
            let ev = Option.value ~default:(Expr.Var v) (Smap.find_opt v me) in
            Stmt.Assign (shadow v, Expr.Select (Expr.Var cvar, tv, ev)) :: acc)
          defined []
      in
      let commit =
        Sset.fold
          (fun v acc -> Stmt.Assign (v, Expr.Var (shadow v)) :: acc)
          defined []
      in
      compute @ commit
    in
    Some (Stmt.Assign (cvar, c) :: selects)
  | _ -> None

(** If-convert every convertible conditional in [p] (bottom-up). *)
let apply (p : Stmt.program) : Stmt.program =
  let counter = ref 0 in
  let new_decls = ref [] in
  let ty_of v =
    match Stmt.lookup_scalar_ty p v with Some t -> t | None -> Types.Tint
  in
  let fresh () =
    incr counter;
    let name = Printf.sprintf "c@ifc%d" !counter in
    new_decls := (name, Types.Tint) :: !new_decls;
    name
  in
  let rewritten =
    Stmt.rewrite_list
      (fun s ->
        match s with
        | Stmt.If (c, t, e) -> (
          match convert_if ~fresh c t e with
          | Some stmts ->
            (* declare the shadows of converted variables *)
            List.iter
              (fun s' ->
                match s' with
                | Stmt.Assign (x, _) when String.length x > 4
                                          && Filename.check_suffix x "@ifc" ->
                  let base = String.sub x 0 (String.length x - 4) in
                  new_decls := (x, ty_of base) :: !new_decls
                | _ -> ())
              stmts;
            stmts
          | None -> [ s ])
        | s -> [ s ])
      p.body
  in
  Stmt.add_locals { p with body = rewritten } (List.rev !new_decls)
