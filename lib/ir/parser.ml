(* Parser for the kernel surface syntax — the same C-like form the
   pretty-printer emits, so programs round-trip through text:

     program quickstart {
       param int k;
       in int data[16];
       out int result[16];
       rom ftable = { 163, 215, 9 };
       int i; int j; int a;
       for (i = 0; i < 16; i++) {
         a = data[i];
         for (j = 0; j < 8; j++) {
           a = (a * 5 + 1) & 65535;
           if (a > k) { a = a - k; } else { a = a + 1; }
         }
         result[i] = a;
       }
     }

   Operator precedences match [Pp.prec_of_binop]; `//` line and
   `/* */` block comments are skipped; `name(expr)` is a ROM lookup;
   `(int)`/`(float)` are conversions; dotted operators (+. -. *. /.
   <. <=.) are the float forms. *)

open Types

exception Parse_error of { line : int; col : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error e ->
      Some (Printf.sprintf "Parse_error at %d:%d: %s" e.line e.col e.msg)
    | _ -> None)

(* --- lexer --- *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW of string  (* program param in out local rom int float for if else *)
  | PUNCT of string
  | EOF

type lexed = { tok : token; t_line : int; t_col : int }

let keywords =
  [ "program"; "param"; "in"; "out"; "local"; "rom"; "int"; "float"; "for";
    "if"; "else" ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '@' || c = '#'

let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : lexed list =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let toks = ref [] in
  let error msg = raise (Parse_error { line = !line; col = !col; msg }) in
  let emit tok l c = toks := { tok; t_line = l; t_col = c } :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let advance () =
    (if src.[!i] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr i
  in
  while !i < n do
    let c = src.[!i] in
    let l0 = !line and c0 = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && peek 1 = Some '*' then begin
      advance ();
      advance ();
      let rec skip () =
        if !i + 1 >= n then error "unterminated comment"
        else if src.[!i] = '*' && peek 1 = Some '/' then begin
          advance ();
          advance ()
        end
        else begin
          advance ();
          skip ()
        end
      in
      skip ()
    end
    else if is_digit c then begin
      (* integer or float literal; hex with 0x *)
      let start = !i in
      (* a malformed or out-of-range literal is an error at its start *)
      let literal what conv text =
        match conv text with
        | Some v -> v
        | None ->
          let msg = Printf.sprintf "bad %s literal %S" what text in
          raise (Parse_error { line = l0; col = c0; msg })
      in
      if c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
        advance ();
        advance ();
        while
          !i < n
          && (is_digit src.[!i]
             || (Char.lowercase_ascii src.[!i] >= 'a'
                && Char.lowercase_ascii src.[!i] <= 'f'))
        do
          advance ()
        done;
        emit
          (INT
             (literal "integer" int_of_string_opt
                (String.sub src start (!i - start))))
          l0 c0
      end
      else begin
        let is_float = ref false in
        while !i < n && is_digit src.[!i] do
          advance ()
        done;
        if !i < n && src.[!i] = '.' && not (peek 1 = Some '.') then begin
          is_float := true;
          advance ();
          while !i < n && is_digit src.[!i] do
            advance ()
          done
        end;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          is_float := true;
          advance ();
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then advance ();
          while !i < n && is_digit src.[!i] do
            advance ()
          done
        end;
        let text = String.sub src start (!i - start) in
        if !is_float then
          emit (FLOAT (literal "float" float_of_string_opt text)) l0 c0
        else emit (INT (literal "integer" int_of_string_opt text)) l0 c0
      end
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let text = String.sub src start (!i - start) in
      if List.mem text keywords then emit (KW text) l0 c0
      else emit (IDENT text) l0 c0
    end
    else begin
      (* punctuation, longest match first *)
      let try3 =
        if !i + 2 < n then Some (String.sub src !i 3) else None
      in
      let try2 = if !i + 1 < n then Some (String.sub src !i 2) else None in
      let three = [ "<=." ] in
      let two =
        [ "=="; "!="; "<="; ">="; "<<"; ">>"; "++"; "+="; "+."; "-."; "*.";
          "/."; "<." ]
      in
      let consume k text =
        emit (PUNCT text) l0 c0;
        for _ = 1 to k do
          advance ()
        done
      in
      match try3 with
      | Some t3 when List.mem t3 three -> consume 3 t3
      | _ -> (
        match try2 with
        | Some t2 when List.mem t2 two -> consume 2 t2
        | _ -> (
          match c with
          | '{' | '}' | '(' | ')' | '[' | ']' | ';' | ',' | '=' | '<' | '>'
          | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '?' | ':' ->
            consume 1 (String.make 1 c)
          | c -> error (Printf.sprintf "unexpected character %C" c)))
    end
  done;
  List.rev ({ tok = EOF; t_line = !line; t_col = !col } :: !toks)

(* --- parser state --- *)

type state = { mutable toks : lexed list }

let current st =
  match st.toks with t :: _ -> t | [] -> assert false

let error_at (t : lexed) msg =
  raise (Parse_error { line = t.t_line; col = t.t_col; msg })

let describe = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s -> "identifier " ^ s
  | KW s -> "keyword " ^ s
  | PUNCT s -> "'" ^ s ^ "'"
  | EOF -> "end of input"

let pop st =
  let t = current st in
  (match st.toks with _ :: rest -> st.toks <- rest | [] -> ());
  t

let expect_punct st s =
  let t = pop st in
  match t.tok with
  | PUNCT p when String.equal p s -> ()
  | tok -> error_at t (Printf.sprintf "expected '%s', found %s" s (describe tok))

let expect_kw st s =
  let t = pop st in
  match t.tok with
  | KW k when String.equal k s -> ()
  | tok -> error_at t (Printf.sprintf "expected '%s', found %s" s (describe tok))

let expect_ident st =
  let t = pop st in
  match t.tok with
  | IDENT x -> x
  | tok -> error_at t ("expected an identifier, found " ^ describe tok)

let expect_int st =
  let t = pop st in
  match t.tok with
  | INT v -> v
  | PUNCT "-" -> (
    let t2 = pop st in
    match t2.tok with
    | INT v -> -v
    | tok -> error_at t2 ("expected an integer, found " ^ describe tok))
  | tok -> error_at t ("expected an integer, found " ^ describe tok)

let peek_punct st s =
  match (current st).tok with PUNCT p -> String.equal p s | _ -> false

let accept_punct st s =
  if peek_punct st s then begin
    ignore (pop st);
    true
  end
  else false

(* --- expressions (precedence climbing; levels match Pp) --- *)

let binop_of_punct = function
  | "*" -> Some Mul | "/" -> Some Div | "%" -> Some Mod
  | "*." -> Some Fmul | "/." -> Some Fdiv
  | "+" -> Some Add | "-" -> Some Sub
  | "+." -> Some Fadd | "-." -> Some Fsub
  | "<<" -> Some Shl | ">>" -> Some Shr
  | "<" -> Some Lt | "<=" -> Some Le | ">" -> Some Gt | ">=" -> Some Ge
  | "<." -> Some Fcmp_lt | "<=." -> Some Fcmp_le
  | "==" -> Some Eq | "!=" -> Some Ne
  | "&" -> Some BAnd | "^" -> Some BXor | "|" -> Some BOr
  | _ -> None

let prec_of = Pp.prec_of_binop

let rec parse_expr st : Expr.t =
  let e = parse_binary st 0 in
  if accept_punct st "?" then begin
    let t = parse_expr st in
    expect_punct st ":";
    let f = parse_expr st in
    Expr.Select (e, t, f)
  end
  else e

and parse_binary st min_prec : Expr.t =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match (current st).tok with
    | PUNCT p -> (
      match binop_of_punct p with
      | Some op when prec_of op >= min_prec ->
        ignore (pop st);
        let rhs = parse_binary st (prec_of op + 1) in
        lhs := Expr.Binop (op, !lhs, rhs)
      | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st : Expr.t =
  let t = current st in
  match t.tok with
  | PUNCT "-" -> (
    ignore (pop st);
    match (current st).tok with
    | INT v ->
      ignore (pop st);
      Expr.Int (-v)
    | FLOAT f ->
      ignore (pop st);
      Expr.Float (-.f)
    | _ -> Expr.Unop (Neg, parse_unary st))
  | PUNCT "-." ->
    ignore (pop st);
    Expr.Unop (Fneg, parse_unary st)
  | PUNCT "~" ->
    ignore (pop st);
    Expr.Unop (BNot, parse_unary st)
  | _ -> parse_primary st

and parse_primary st : Expr.t =
  let t = pop st in
  match t.tok with
  | INT v -> Expr.Int v
  | FLOAT f -> Expr.Float f
  | IDENT x ->
    if accept_punct st "[" then begin
      let idx = parse_expr st in
      expect_punct st "]";
      Expr.Load (x, idx)
    end
    else if accept_punct st "(" then begin
      let idx = parse_expr st in
      expect_punct st ")";
      Expr.Rom (x, idx)
    end
    else Expr.Var x
  | PUNCT "(" -> (
    (* parenthesized expression or a conversion *)
    match (current st).tok with
    | KW "float" ->
      ignore (pop st);
      expect_punct st ")";
      Expr.Unop (I2f, parse_unary st)
    | KW "int" ->
      ignore (pop st);
      expect_punct st ")";
      Expr.Unop (F2i, parse_unary st)
    | _ ->
      let e = parse_expr st in
      expect_punct st ")";
      e)
  | tok -> error_at t ("expected an expression, found " ^ describe tok)

(* --- statements --- *)

let rec parse_stmt st : Stmt.t =
  let t = current st in
  match t.tok with
  | KW "for" -> parse_for st
  | KW "if" -> parse_if st
  | IDENT x -> (
    ignore (pop st);
    if accept_punct st "[" then begin
      let idx = parse_expr st in
      expect_punct st "]";
      expect_punct st "=";
      let e = parse_expr st in
      expect_punct st ";";
      Stmt.Store (x, idx, e)
    end
    else begin
      expect_punct st "=";
      let e = parse_expr st in
      expect_punct st ";";
      Stmt.Assign (x, e)
    end)
  | tok -> error_at t ("expected a statement, found " ^ describe tok)

and parse_block st : Stmt.t list =
  expect_punct st "{";
  let rec go acc =
    if accept_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

and parse_for st : Stmt.t =
  expect_kw st "for";
  expect_punct st "(";
  let index = expect_ident st in
  expect_punct st "=";
  let lo = parse_expr st in
  expect_punct st ";";
  let index2 = expect_ident st in
  if not (String.equal index index2) then
    error_at (current st)
      (Printf.sprintf "loop condition tests %s, expected %s" index2 index);
  expect_punct st "<";
  let hi = parse_expr st in
  expect_punct st ";";
  let index3 = expect_ident st in
  if not (String.equal index index3) then
    error_at (current st)
      (Printf.sprintf "loop step updates %s, expected %s" index3 index);
  let step =
    if accept_punct st "++" then 1
    else begin
      expect_punct st "+=";
      expect_int st
    end
  in
  expect_punct st ")";
  let body = parse_block st in
  Stmt.For { index; lo; hi; step; body }

and parse_if st : Stmt.t =
  expect_kw st "if";
  expect_punct st "(";
  let c = parse_expr st in
  expect_punct st ")";
  let then_ = parse_block st in
  let else_ =
    match (current st).tok with
    | KW "else" ->
      ignore (pop st);
      parse_block st
    | _ -> []
  in
  Stmt.If (c, then_, else_)

(* --- declarations and programs --- *)

let parse_ty st =
  let t = pop st in
  match t.tok with
  | KW "int" -> Tint
  | KW "float" -> Tfloat
  | tok -> error_at t ("expected a type, found " ^ describe tok)

type decls = {
  mutable d_params : (var * ty) list;
  mutable d_locals : (var * ty) list;
  mutable d_arrays : Stmt.array_decl list;
  mutable d_roms : Stmt.rom_decl list;
}

let parse_array_decl st kind d =
  let ty = parse_ty st in
  let name = expect_ident st in
  expect_punct st "[";
  let size = expect_int st in
  expect_punct st "]";
  expect_punct st ";";
  d.d_arrays <-
    d.d_arrays @ [ { Stmt.a_name = name; a_ty = ty; a_size = size; a_kind = kind } ]

let parse_rom_decl st d =
  let name = expect_ident st in
  expect_punct st "=";
  expect_punct st "{";
  let rec items acc =
    let v = expect_int st in
    if accept_punct st "," then items (v :: acc) else List.rev (v :: acc)
  in
  let data = if peek_punct st "}" then [] else items [] in
  expect_punct st "}";
  expect_punct st ";";
  d.d_roms <- d.d_roms @ [ { Stmt.r_name = name; r_data = Array.of_list data } ]

(* a scalar or array declaration starting with a bare type keyword *)
let parse_plain_decl st d =
  let ty = parse_ty st in
  let name = expect_ident st in
  if accept_punct st "[" then begin
    let size = expect_int st in
    expect_punct st "]";
    expect_punct st ";";
    d.d_arrays <-
      d.d_arrays
      @ [ { Stmt.a_name = name; a_ty = ty; a_size = size; a_kind = Stmt.Local } ]
  end
  else begin
    expect_punct st ";";
    d.d_locals <- d.d_locals @ [ (name, ty) ]
  end

let parse_program_tokens st : Stmt.program =
  expect_kw st "program";
  let name = expect_ident st in
  expect_punct st "{";
  let d = { d_params = []; d_locals = []; d_arrays = []; d_roms = [] } in
  let rec decls () =
    match (current st).tok with
    | KW "param" ->
      ignore (pop st);
      let ty = parse_ty st in
      let x = expect_ident st in
      expect_punct st ";";
      d.d_params <- d.d_params @ [ (x, ty) ];
      decls ()
    | KW "in" ->
      ignore (pop st);
      parse_array_decl st Stmt.Input d;
      decls ()
    | KW "out" ->
      ignore (pop st);
      parse_array_decl st Stmt.Output d;
      decls ()
    | KW "local" ->
      ignore (pop st);
      parse_array_decl st Stmt.Local d;
      decls ()
    | KW "rom" ->
      ignore (pop st);
      parse_rom_decl st d;
      decls ()
    | KW ("int" | "float") ->
      parse_plain_decl st d;
      decls ()
    | _ -> ()
  in
  decls ();
  let rec stmts acc =
    if peek_punct st "}" then List.rev acc else stmts (parse_stmt st :: acc)
  in
  let body = stmts [] in
  expect_punct st "}";
  (match (current st).tok with
  | EOF -> ()
  | tok -> error_at (current st) ("trailing input: " ^ describe tok));
  { Stmt.prog_name = name;
    params = d.d_params;
    locals = d.d_locals;
    arrays = d.d_arrays;
    roms = d.d_roms;
    body }

(** Parse a whole program.  @raise Parse_error with position info. *)
let program_of_string (src : string) : Stmt.program =
  parse_program_tokens { toks = tokenize src }

(** Parse a single expression (for tests and tools). *)
let expr_of_string (src : string) : Expr.t =
  let st = { toks = tokenize src } in
  let e = parse_expr st in
  (match (current st).tok with
  | EOF -> e
  | tok -> error_at (current st) ("trailing input: " ^ describe tok))

(** Parse a program from a file.  @raise Parse_error / Sys_error. *)
let program_of_file (path : string) : Stmt.program =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  program_of_string src
