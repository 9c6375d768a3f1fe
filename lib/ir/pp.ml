(* C-like pretty-printer for the IR; used by the CLI, examples and error
   messages.  The output is meant for humans, round-tripping is not a
   goal. *)

open Types

let prec_of_binop = function
  | Mul | Div | Mod | Fmul | Fdiv -> 7
  | Add | Sub | Fadd | Fsub -> 6
  | Shl | Shr -> 5
  | Lt | Le | Gt | Ge | Fcmp_lt | Fcmp_le -> 4
  | Eq | Ne -> 3
  | BAnd -> 2
  | BXor -> 1
  | BOr -> 0

let rec pp_expr_prec prec ppf (e : Expr.t) =
  match e with
  | Int n -> Fmt.int ppf n
  (* +. 0. normalizes IEEE negative zero: "%g" would print it "-0",
     which reparses as the integer 0 and reprints as "0" — breaking
     the print/parse/print fixpoint ([Encode] merges the two alike) *)
  | Float f -> Fmt.pf ppf "%g" (f +. 0.)
  | Var v -> Fmt.string ppf v
  | Load (a, i) -> Fmt.pf ppf "%s[%a]" a (pp_expr_prec 0) i
  | Rom (r, i) -> Fmt.pf ppf "%s(%a)" r (pp_expr_prec 0) i
  | Unop (o, x) -> Fmt.pf ppf "%s%a" (unop_name o) (pp_expr_prec 8) x
  | Binop (o, l, r) ->
    let p = prec_of_binop o in
    let body ppf () =
      Fmt.pf ppf "%a %s %a" (pp_expr_prec p) l (binop_name o)
        (pp_expr_prec (p + 1)) r
    in
    if Stdlib.( < ) p prec then Fmt.pf ppf "(%a)" body ()
    else body ppf ()
  | Select (c, t, f) ->
    Fmt.pf ppf "(%a ? %a : %a)" (pp_expr_prec 1) c (pp_expr_prec 1) t
      (pp_expr_prec 1) f

let pp_expr ppf e = pp_expr_prec 0 ppf e

let rec pp_stmt ~indent ppf (s : Stmt.t) =
  let pad = String.make indent ' ' in
  match s with
  | Assign (x, e) -> Fmt.pf ppf "%s%s = %a;" pad x pp_expr e
  | Store (a, i, e) -> Fmt.pf ppf "%s%s[%a] = %a;" pad a pp_expr i pp_expr e
  | If (c, t, []) ->
    Fmt.pf ppf "%sif (%a) {@\n%a@\n%s}" pad pp_expr c
      (pp_block ~indent:(indent + 2)) t pad
  | If (c, t, e) ->
    Fmt.pf ppf "%sif (%a) {@\n%a@\n%s} else {@\n%a@\n%s}" pad pp_expr c
      (pp_block ~indent:(indent + 2)) t pad
      (pp_block ~indent:(indent + 2)) e pad
  | For l ->
    let step_s =
      if l.step = 1 then Printf.sprintf "%s++" l.index
      else Printf.sprintf "%s += %d" l.index l.step
    in
    Fmt.pf ppf "%sfor (%s = %a; %s < %a; %s) {@\n%a@\n%s}" pad l.index pp_expr
      l.lo l.index pp_expr l.hi step_s
      (pp_block ~indent:(indent + 2)) l.body pad

and pp_block ~indent ppf stmts =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any "@\n") (pp_stmt ~indent))
    stmts

let pp_array_decl ppf (d : Stmt.array_decl) =
  let kind =
    match d.a_kind with
    | Stmt.Input -> "in" | Stmt.Output -> "out" | Stmt.Local -> "local"
  in
  Fmt.pf ppf "%s %a %s[%d];" kind pp_ty d.a_ty d.a_name d.a_size

let pp_rom_decl ppf (r : Stmt.rom_decl) =
  Fmt.pf ppf "rom %s = { %s };" r.r_name
    (String.concat ", " (Array.to_list (Array.map string_of_int r.r_data)))

(* The printed form is the surface syntax [Parser] reads back: the
   round-trip parse (program_to_string p) == p holds structurally. *)
let pp_program ppf (p : Stmt.program) =
  Fmt.pf ppf "program %s {@\n" p.prog_name;
  List.iter (fun (x, t) -> Fmt.pf ppf "  param %a %s;@\n" pp_ty t x) p.params;
  List.iter (fun d -> Fmt.pf ppf "  %a@\n" pp_array_decl d) p.arrays;
  List.iter (fun r -> Fmt.pf ppf "  %a@\n" pp_rom_decl r) p.roms;
  List.iter (fun (x, t) -> Fmt.pf ppf "  %a %s;@\n" pp_ty t x) p.locals;
  Fmt.pf ppf "%a@\n}@\n" (pp_block ~indent:2) p.body

let expr_to_string e = Fmt.str "%a" pp_expr e
let stmt_to_string s = Fmt.str "%a" (pp_stmt ~indent:0) s
let program_to_string p = Fmt.str "%a" pp_program p
