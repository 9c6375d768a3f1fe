(* Expressions of the loop IR, with traversals, substitution and a
   constant folder.  Expressions are pure except for [Load], which reads
   memory (a memory *reference* in the paper's cost model). *)

open Types

type t =
  | Int of int
  | Float of float
  | Var of var
  | Load of array_id * t              (** memory load: [a[idx]] *)
  | Rom of rom_id * t                 (** local-ROM lookup (not a memory ref) *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of t * t * t               (** [c ? a : b], result of if-conversion *)

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Var x, Var y -> String.equal x y
  | Load (a1, i1), Load (a2, i2) -> String.equal a1 a2 && equal i1 i2
  | Rom (r1, i1), Rom (r2, i2) -> String.equal r1 r2 && equal i1 i2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal e1 e2
  | Binop (o1, l1, r1), Binop (o2, l2, r2) -> o1 = o2 && equal l1 l2 && equal r1 r2
  | Select (c1, t1, f1), Select (c2, t2, f2) ->
    equal c1 c2 && equal t1 t2 && equal f1 f2
  | ( (Int _ | Float _ | Var _ | Load _ | Rom _ | Unop _ | Binop _ | Select _), _ ) ->
    false

(** Fold over all sub-expressions (pre-order, including [e] itself). *)
let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Float _ | Var _ -> acc
  | Load (_, i) | Rom (_, i) | Unop (_, i) -> fold f acc i
  | Binop (_, l, r) -> fold f (fold f acc l) r
  | Select (c, t, e') -> fold f (fold f (fold f acc c) t) e'

(** Bottom-up rewrite of every node. *)
let rec map f e =
  let e' =
    match e with
    | Int _ | Float _ | Var _ -> e
    | Load (a, i) -> Load (a, map f i)
    | Rom (r, i) -> Rom (r, map f i)
    | Unop (o, x) -> Unop (o, map f x)
    | Binop (o, l, r) -> Binop (o, map f l, map f r)
    | Select (c, t, e') -> Select (map f c, map f t, map f e')
  in
  f e'

(** Scalar variables read by [e], left-to-right with duplicates. *)
let vars e =
  List.rev
    (fold (fun acc e -> match e with Var v -> v :: acc | _ -> acc) [] e)

module Sset = Set.Make (String)

let var_set e = Sset.of_list (vars e)

let mem_var v e = List.exists (String.equal v) (vars e)

(** Arrays loaded from (duplicates removed). *)
let arrays_loaded e =
  Sset.elements
    (fold
       (fun acc e -> match e with Load (a, _) -> Sset.add a acc | _ -> acc)
       Sset.empty e)

(** Number of memory references (loads) in [e]. *)
let load_count e =
  fold (fun n e -> match e with Load _ -> n + 1 | _ -> n) 0 e

(** Does [e] contain any memory load? *)
let has_load e = load_count e > 0

(** Substitute variables via [subst] (total on the variables of [e] it
    cares about; others unchanged). *)
let subst_vars subst e =
  map (function Var v -> (match subst v with Some e' -> e' | None -> Var v)
              | e -> e)
    e

(** Rename variables with a total renaming function. *)
let rename rn e = subst_vars (fun v -> Some (Var (rn v))) e

let truth n = if n then 1 else 0

(** Evaluate a binary operator on constant values.  Division or modulus
    by zero raises [Ir_error] — the interpreter relies on this. *)
let eval_binop op a b =
  match (op, a, b) with
  | Add, VInt x, VInt y -> VInt (x + y)
  | Sub, VInt x, VInt y -> VInt (x - y)
  | Mul, VInt x, VInt y -> VInt (x * y)
  | Div, VInt _, VInt 0 -> ir_error "division by zero"
  | Div, VInt x, VInt y -> VInt (x / y)
  | Mod, VInt _, VInt 0 -> ir_error "modulus by zero"
  | Mod, VInt x, VInt y -> VInt (x mod y)
  | BAnd, VInt x, VInt y -> VInt (x land y)
  | BOr, VInt x, VInt y -> VInt (x lor y)
  | BXor, VInt x, VInt y -> VInt (x lxor y)
  | Shl, VInt x, VInt y ->
    if y < 0 || y > 62 then ir_error "shift amount %d out of range" y
    else VInt (x lsl y)
  | Shr, VInt x, VInt y ->
    if y < 0 || y > 62 then ir_error "shift amount %d out of range" y
    else VInt (x asr y)
  | Lt, VInt x, VInt y -> VInt (truth (x < y))
  | Le, VInt x, VInt y -> VInt (truth (x <= y))
  | Gt, VInt x, VInt y -> VInt (truth (x > y))
  | Ge, VInt x, VInt y -> VInt (truth (x >= y))
  | Eq, VInt x, VInt y -> VInt (truth (x = y))
  | Ne, VInt x, VInt y -> VInt (truth (x <> y))
  | Fadd, VFloat x, VFloat y -> VFloat (x +. y)
  | Fsub, VFloat x, VFloat y -> VFloat (x -. y)
  | Fmul, VFloat x, VFloat y -> VFloat (x *. y)
  | Fdiv, VFloat x, VFloat y -> VFloat (x /. y)
  | Fcmp_lt, VFloat x, VFloat y -> VInt (truth (x < y))
  | Fcmp_le, VFloat x, VFloat y -> VInt (truth (x <= y))
  | op, a, b ->
    ir_error "type error: %a %s %a" pp_value a (binop_name op) pp_value b

let eval_unop op a =
  match (op, a) with
  | Neg, VInt x -> VInt (-x)
  | BNot, VInt x -> VInt (lnot x)
  | Fneg, VFloat x -> VFloat (-.x)
  | I2f, VInt x -> VFloat (float_of_int x)
  | F2i, VFloat x -> VInt (int_of_float x)
  | op, a -> ir_error "type error: %s %a" (unop_name op) pp_value a

(** Constant-fold [e] bottom-up.  Algebraic identities are restricted to
    ones that are exact for both machine integers and floats we use
    (e.g. [x * 0 -> 0] is only applied to integers). *)
let rec simplify e =
  match e with
  | Int _ | Float _ | Var _ -> e
  | Load (a, i) -> Load (a, simplify i)
  | Rom (r, i) -> Rom (r, simplify i)
  | Unop (o, x) -> (
    match simplify x with
    | Int n -> (
      match eval_unop o (VInt n) with
      | VInt m -> Int m
      | VFloat f -> Float f
      | exception Ir_error _ -> Unop (o, Int n))
    | Float f -> (
      match eval_unop o (VFloat f) with
      | VInt m -> Int m
      | VFloat g -> Float g
      | exception Ir_error _ -> Unop (o, Float f))
    | x' -> Unop (o, x'))
  | Binop (o, l, r) -> (
    let l = simplify l and r = simplify r in
    match (o, l, r) with
    | _, Int a, Int b -> (
      match eval_binop o (VInt a) (VInt b) with
      | VInt n -> Int n
      | VFloat f -> Float f
      | exception Ir_error _ -> Binop (o, l, r))
    | _, Float a, Float b -> (
      match eval_binop o (VFloat a) (VFloat b) with
      | VInt n -> Int n
      | VFloat f -> Float f
      | exception Ir_error _ -> Binop (o, l, r))
    | Add, x, Int 0 | Add, Int 0, x -> x
    | Sub, x, Int 0 -> x
    | Mul, x, Int 1 | Mul, Int 1, x -> x
    | Mul, x, Int 0 | Mul, Int 0, x -> if has_load x then Binop (o, l, r) else Int 0
    | Div, x, Int 1 -> x
    | BAnd, x, Int (-1) | BAnd, Int (-1), x -> x
    | BOr, x, Int 0 | BOr, Int 0, x -> x
    | BXor, x, Int 0 | BXor, Int 0, x -> x
    | Shl, x, Int 0 | Shr, x, Int 0 -> x
    | _ -> Binop (o, l, r))
  | Select (c, t, f) -> (
    match simplify c with
    | Int 0 -> simplify f
    | Int _ -> simplify t
    | c' -> Select (c', simplify t, simplify f))

(** Structural size of the expression (number of nodes). *)
let size e = fold (fun n _ -> n + 1) 0 e

(** Count of proper hardware operators in [e]: every node that maps to a
    datapath operator (arithmetic, logic, lookups, loads, selects);
    constants and variable reads are free. *)
let operator_count e =
  fold
    (fun n e ->
      match e with
      | Int _ | Float _ | Var _ -> n
      | Load _ | Rom _ | Unop _ | Binop _ | Select _ -> n + 1)
    0 e
