(* Statements and whole programs.

   A program is a list of structured statements over declared scalars,
   arrays and ROMs.  Loops are counted FOR loops with a positive constant
   step: [for (i = lo; i < hi; i += step)].  This is the shape the
   Nimble-style kernel extraction consumes and every transformation
   preserves. *)

open Types

type loop = {
  index : var;
  lo : Expr.t;
  hi : Expr.t;  (** exclusive upper bound *)
  step : int;   (** positive constant *)
  body : t list;
}

and t =
  | Assign of var * Expr.t
  | Store of array_id * Expr.t * Expr.t  (** [Store (a, idx, e)] is [a[idx] = e] *)
  | If of Expr.t * t list * t list
  | For of loop

type array_kind =
  | Input   (** initialized from the workload; read (and writable) *)
  | Output  (** observable result of the program *)
  | Local   (** scratch storage, zero-initialized *)

type array_decl = {
  a_name : array_id;
  a_ty : ty;
  a_size : int;
  a_kind : array_kind;
}

type rom_decl = {
  r_name : rom_id;
  r_data : int array;  (** ROM contents are integer constants *)
}

type program = {
  prog_name : string;
  params : (var * ty) list;  (** scalar inputs supplied by the workload *)
  locals : (var * ty) list;  (** every other scalar the program assigns *)
  arrays : array_decl list;
  roms : rom_decl list;
  body : t list;
}

let rec equal a b =
  match (a, b) with
  | Assign (v1, e1), Assign (v2, e2) -> String.equal v1 v2 && Expr.equal e1 e2
  | Store (a1, i1, e1), Store (a2, i2, e2) ->
    String.equal a1 a2 && Expr.equal i1 i2 && Expr.equal e1 e2
  | If (c1, t1, f1), If (c2, t2, f2) ->
    Expr.equal c1 c2 && equal_list t1 t2 && equal_list f1 f2
  | For l1, For l2 ->
    String.equal l1.index l2.index
    && Expr.equal l1.lo l2.lo && Expr.equal l1.hi l2.hi
    && l1.step = l2.step && equal_list l1.body l2.body
  | (Assign _ | Store _ | If _ | For _), _ -> false

and equal_list xs ys =
  List.length xs = List.length ys && List.for_all2 equal xs ys

(** Fold over every statement, pre-order. *)
let rec fold f acc s =
  let acc = f acc s in
  match s with
  | Assign _ | Store _ -> acc
  | If (_, t, e) -> fold_list f (fold_list f acc t) e
  | For l -> fold_list f acc l.body

and fold_list f acc stmts = List.fold_left (fold f) acc stmts

(** Fold over every expression occurring in the statement list (loop
    bounds included). *)
let fold_exprs f acc stmts =
  fold_list
    (fun acc s ->
      match s with
      | Assign (_, e) -> f acc e
      | Store (_, i, e) -> f (f acc i) e
      | If (c, _, _) -> f acc c
      | For l -> f (f acc l.lo) l.hi)
    acc stmts

(** Bottom-up statement rewrite; [f] may expand one statement to many. *)
let rec rewrite (f : t -> t list) s : t list =
  let s' =
    match s with
    | Assign _ | Store _ -> s
    | If (c, t, e) -> If (c, rewrite_list f t, rewrite_list f e)
    | For l -> For { l with body = rewrite_list f l.body }
  in
  f s'

and rewrite_list f stmts = List.concat_map (rewrite f) stmts

(** Rewrite every expression in-place (loop bounds included). *)
let rec map_exprs f s =
  match s with
  | Assign (v, e) -> Assign (v, f e)
  | Store (a, i, e) -> Store (a, f i, f e)
  | If (c, t, e) -> If (f c, map_exprs_list f t, map_exprs_list f e)
  | For l ->
    For { l with lo = f l.lo; hi = f l.hi; body = map_exprs_list f l.body }

and map_exprs_list f stmts = List.map (map_exprs f) stmts

module Sset = Expr.Sset

(** Scalars assigned anywhere in [stmts] (loop indices included). *)
let defs stmts =
  fold_list
    (fun acc s ->
      match s with
      | Assign (v, _) -> Sset.add v acc
      | For l -> Sset.add l.index acc
      | Store _ | If _ -> acc)
    Sset.empty stmts

(** Scalars read anywhere in [stmts] (in expressions or loop bounds). *)
let uses stmts =
  fold_exprs (fun acc e -> Sset.union acc (Expr.var_set e)) Sset.empty stmts

(** All scalars referenced (read or written). *)
let scalars stmts = Sset.union (defs stmts) (uses stmts)

let arrays_written stmts =
  fold_list
    (fun acc s -> match s with Store (a, _, _) -> Sset.add a acc | _ -> acc)
    Sset.empty stmts

(** Memory references: loads in expressions plus stores. *)
let memory_reference_count stmts =
  let loads = fold_exprs (fun n e -> n + Expr.load_count e) 0 stmts in
  let stores =
    fold_list (fun n s -> match s with Store _ -> n + 1 | _ -> n) 0 stmts
  in
  loads + stores

(** Hardware operator count of the statement list: operators in every
    expression, plus one store port operator per [Store]. *)
let operator_count stmts =
  let in_exprs = fold_exprs (fun n e -> n + Expr.operator_count e) 0 stmts in
  let stores =
    fold_list (fun n s -> match s with Store _ -> n + 1 | _ -> n) 0 stmts
  in
  in_exprs + stores

(** Is the statement list a single basic block (no control flow)? *)
let is_straight_line stmts =
  List.for_all (function Assign _ | Store _ -> true | If _ | For _ -> false) stmts

(** Rename every scalar occurrence (defs and uses) with [rn]. *)
let rec rename_vars rn s =
  match s with
  | Assign (v, e) -> Assign (rn v, Expr.rename rn e)
  | Store (a, i, e) -> Store (a, Expr.rename rn i, Expr.rename rn e)
  | If (c, t, e) ->
    If (Expr.rename rn c, List.map (rename_vars rn) t, List.map (rename_vars rn) e)
  | For l ->
    For
      { index = rn l.index;
        lo = Expr.rename rn l.lo;
        hi = Expr.rename rn l.hi;
        step = l.step;
        body = List.map (rename_vars rn) l.body }

let rename_vars_list rn stmts = List.map (rename_vars rn) stmts

(** Statement count (structural, loops counted once). *)
let size stmts = fold_list (fun n _ -> n + 1) 0 stmts

(* --- program-level helpers --- *)

let scalar_decls p = p.params @ p.locals

let lookup_scalar_ty p v =
  match List.assoc_opt v (scalar_decls p) with
  | Some ty -> Some ty
  | None -> None

let lookup_array p a = List.find_opt (fun d -> String.equal d.a_name a) p.arrays

(** Declare additional locals, ignoring names already declared. *)
let add_locals p vars =
  let known = List.map fst (scalar_decls p) in
  let fresh =
    List.filter (fun (v, _) -> not (List.exists (String.equal v) known)) vars
  in
  (* keep the first declaration when [vars] itself repeats a name *)
  let rec dedup seen = function
    | [] -> []
    | (v, t) :: rest ->
      if Sset.mem v seen then dedup seen rest
      else (v, t) :: dedup (Sset.add v seen) rest
  in
  { p with locals = p.locals @ dedup Sset.empty fresh }

(** A fresh scalar name based on [base] that collides with no declared
    scalar of [p] and none of [avoid]. *)
let fresh_var p ?(avoid = []) base =
  let taken =
    Sset.union
      (Sset.of_list (List.map fst (scalar_decls p)))
      (Sset.of_list avoid)
  in
  if not (Sset.mem base taken) then base
  else
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Sset.mem cand taken then go (i + 1) else cand
    in
    go 1
