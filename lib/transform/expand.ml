(* Variable expansion (§4.3: "expand each variable in the inner/outer
   loop nest to DS versions").

   Naming scheme for generated scalars — the '@' separator cannot occur
   in source-level names written through the builder DSL, so generated
   names never collide with user names; a defensive check enforces it:

     v@s<k>     rotating pipeline copy for stage k
     v@pre<d>   staging copy written by data set d's unrolled pre code
     v@post<d>  staging copy read by data set d's unrolled post code
     v@rot      rotation temporary
     v@u<d>     unroll copy for unroll-and-jam *)

open Uas_ir
module Sset = Stmt.Sset

let stage_copy v k = Printf.sprintf "%s@s%d" v k
let pre_copy v d = Printf.sprintf "%s@pre%d" v d
let post_copy v d = Printf.sprintf "%s@post%d" v d
let rot_temp v = v ^ "@rot"
let unroll_copy v d = Printf.sprintf "%s@u%d" v d

(** Rename scalars of [set] in [stmts] through [f]; other scalars are
    untouched. *)
let rename_in (set : Sset.t) (f : string -> string) (stmts : Stmt.t list) :
    Stmt.t list =
  Stmt.rename_vars_list (fun v -> if Sset.mem v set then f v else v) stmts

(** Declarations for the copies produced by [names] applied to every
    variable of [set], typed like the originals.  @raise Ir_error when a
    generated name is already declared (user names may not contain '@'). *)
let copy_decls (p : Stmt.program) (set : Sset.t)
    (names : string -> string list) : (string * Types.ty) list =
  let ty_of v =
    match Stmt.lookup_scalar_ty p v with
    | Some t -> t
    | None -> Types.ir_error "expansion of undeclared scalar %s" v
  in
  Sset.fold
    (fun v acc ->
      List.fold_left
        (fun acc name ->
          if Stmt.lookup_scalar_ty p name <> None then
            Types.ir_error "generated name %s collides with a declared scalar"
              name;
          (name, ty_of v) :: acc)
        acc (names v))
    set []

(** The scalars a nest transformation must version: everything the nest
    writes, plus both loop indices (each data set owns its own index
    values). *)
let versioned_scalars (nest : Uas_analysis.Loop_nest.pair) : Sset.t =
  Stmt.defs (Uas_analysis.Loop_nest.all_stmts nest)
  |> Sset.add nest.Uas_analysis.Loop_nest.outer_index
  |> Sset.add nest.inner_index

(** Exit value of a loop index after the loop completes, as a constant
    expression when the bounds are static. *)
let index_exit_value ~(lo : Expr.t) ~(hi : Expr.t) ~step : Expr.t =
  match (Expr.simplify lo, Expr.simplify hi) with
  | Expr.Int l, Expr.Int h ->
    if h <= l then Expr.Int l
    else Expr.Int (l + ((h - l + step - 1) / step * step))
  | lo', hi' ->
    (* lo + ceil((hi-lo)/step)*step, emitted symbolically *)
    let diff = Expr.Binop (Types.Sub, hi', lo') in
    let steps =
      Expr.Binop
        ( Types.Div,
          Expr.Binop (Types.Add, diff, Expr.Int (step - 1)),
          Expr.Int step )
    in
    Expr.simplify
      (Expr.Binop (Types.Add, lo', Expr.Binop (Types.Mul, steps, Expr.Int step)))
