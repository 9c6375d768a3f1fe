(* The surface-syntax parser: round-trips with the pretty-printer,
   precise error positions, and hand-written sources. *)

open Uas_ir
module S = Uas_bench_suite

let expr_testable = Alcotest.testable Pp.pp_expr Expr.equal

let test_expr_precedence () =
  List.iter
    (fun (src, expected) ->
      Alcotest.check expr_testable src expected (Parser.expr_of_string src))
    [ ("1 + 2 * 3", Builder.(int 1 + (int 2 * int 3)));
      ("(1 + 2) * 3", Builder.((int 1 + int 2) * int 3));
      ("a & 255 ^ b", Builder.(bxor (band (v "a") (int 255)) (v "b")));
      ("x << 2 + 1", Builder.(shl (v "x") (int 2 + int 1)));
      ("a < b == c < d", Builder.((v "a" < v "b") == (v "c" < v "d")));
      ("tab[i + 1]", Builder.(load "tab" (v "i" + int 1)));
      ("f(x & 63)", Builder.(rom "f" (band (v "x") (int 63))));
      ("(c ? a : b)", Builder.(select (v "c") (v "a") (v "b")));
      ("-5", Expr.Int (-5));
      ("~x + -2", Builder.(bnot (v "x") + int (-2)));
      ("1.5 +. x", Builder.(flt 1.5 +. v "x"));
      ("(float)n *. 0.25", Builder.(i2f (v "n") *. flt 0.25));
      ("(int)y", Builder.(f2i (v "y")));
      ("0xff & x", Builder.(band (int 255) (v "x"))) ]

let test_expr_roundtrip_qcheck =
  (* printed expressions reparse to the same tree (for trees without
     negative-literal/unary-minus ambiguity, which we avoid by
     generating non-negative constants) *)
  let rec gen depth st =
    let open QCheck.Gen in
    if depth = 0 then
      if bool st then Expr.Int (int_range 0 999 st)
      else Expr.Var [| "x"; "y"; "z" |].(int_range 0 2 st)
    else
      let sub () = gen (depth - 1) st in
      match int_range 0 8 st with
      | 0 -> Expr.Binop (Types.Add, sub (), sub ())
      | 1 -> Expr.Binop (Types.Sub, sub (), sub ())
      | 2 -> Expr.Binop (Types.Mul, sub (), sub ())
      | 3 -> Expr.Binop (Types.BAnd, sub (), sub ())
      | 4 -> Expr.Binop (Types.BXor, sub (), sub ())
      | 5 -> Expr.Binop (Types.Shl, sub (), sub ())
      | 6 -> Expr.Load ("mem", sub ())
      | 7 -> Expr.Select (sub (), sub (), sub ())
      | _ -> Expr.Binop (Types.Lt, sub (), sub ())
  in
  QCheck.Test.make ~name:"expression print/parse roundtrip" ~count:300
    (QCheck.make (gen 4) ~print:Pp.expr_to_string)
    (fun e -> Expr.equal e (Parser.expr_of_string (Pp.expr_to_string e)))

let program_equal (p : Stmt.program) (q : Stmt.program) =
  String.equal p.Stmt.prog_name q.Stmt.prog_name
  && p.Stmt.params = q.Stmt.params
  && p.Stmt.locals = q.Stmt.locals
  && p.Stmt.arrays = q.Stmt.arrays
  && List.length p.Stmt.roms = List.length q.Stmt.roms
  && List.for_all2
       (fun (a : Stmt.rom_decl) (b : Stmt.rom_decl) ->
         String.equal a.Stmt.r_name b.Stmt.r_name
         && a.Stmt.r_data = b.Stmt.r_data)
       p.Stmt.roms q.Stmt.roms
  && Stmt.equal_list p.Stmt.body q.Stmt.body

let test_program_roundtrips () =
  let programs =
    [ S.Simple.fg_loop ~m:8 ~n:4;
      S.Simple.ch4_loop ~m:4 ~n:3;
      S.Simple.checksum_loop ~m:4 ~n:6;
      S.Skipjack.skipjack_mem ~m:4;
      S.Skipjack.skipjack_hw ~m:4 ~key:(S.Skipjack.random_key ~seed:3);
      S.Des.des_mem ~m:2;
      S.Des.des_hw ~m:2 ~key64:0x0123456789ABCDEFL ]
  in
  List.iter
    (fun (p : Stmt.program) ->
      let text = Pp.program_to_string p in
      let q = Parser.program_of_string text in
      if not (program_equal p q) then
        Alcotest.failf "%s does not round-trip:@\n%s" p.Stmt.prog_name text)
    programs

(* The canonical-text fixpoint behind the artifact-store keys: for
   every registry benchmark, printing, re-parsing and printing again
   yields the same bytes — so `Pp.program_to_string` is a stable
   identity for cache keying (a program and its parsed round-trip can
   never hash to different keys). *)
let test_registry_canonical_text_fixpoint () =
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let text = Pp.program_to_string b.S.Registry.b_program in
      let reparsed =
        try Parser.program_of_string text
        with Parser.Parse_error e ->
          Alcotest.failf "%s: canonical text does not parse (%d:%d: %s)"
            b.S.Registry.b_name e.line e.col e.msg
      in
      Alcotest.(check string)
        (b.S.Registry.b_name ^ ": canonical text is a fixpoint")
        text
        (Pp.program_to_string reparsed))
    (S.Registry.all () @ S.Registry.extras ())

let test_transformed_roundtrips () =
  (* squashed output (with its generated '@' names) also round-trips *)
  let p = S.Simple.fg_loop ~m:8 ~n:4 in
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let out = Helpers.squash p nest ~ds:4 in
  let text = Pp.program_to_string out.Uas_transform.Squash.program in
  let q = Parser.program_of_string text in
  Alcotest.(check bool) "squashed roundtrip" true
    (program_equal out.Uas_transform.Squash.program q)

let test_hand_written_source () =
  let src =
    {|
// a hand-written kernel with every syntactic form
program demo {
  param int k;
  in int data[8];
  out int result[8];
  local float scratch[4];
  rom f = { 1, 2, 3, 250 };
  int i; int j; int a;
  float y;
  for (i = 0; i < 8; i += 2) {
    a = data[i];
    /* rounds */
    for (j = 0; j < 4; j++) {
      a = f(a & 3) + (a << 1);
      if (a > k) { a = a - k; } else { a = a + 1; }
      a = (a == 7 ? 0 : a);
    }
    y = (float)a *. 0.5;
    scratch[i & 3] = y;
    result[i] = (int)y;
  }
}
|}
  in
  let p = Parser.program_of_string src in
  (match Validate.errors p with
  | [] -> ()
  | errs -> Alcotest.failf "invalid: %a" (Fmt.list Validate.pp_error) errs);
  (* and it executes *)
  let w =
    Interp.workload
      ~scalars:[ ("k", Types.VInt 5) ]
      ~arrays:
        [ ("data", Array.init 8 (fun t -> Types.VInt (t * 11))) ]
      ()
  in
  let r = Interp.run p w in
  Alcotest.(check int) "outputs present" 8
    (Array.length (List.assoc "result" r.Interp.outputs))

let test_error_positions () =
  List.iter
    (fun (src, expect_line) ->
      match Parser.program_of_string src with
      | exception Parser.Parse_error e ->
        Alcotest.(check int) ("line of " ^ String.escaped src) expect_line
          e.line
      | _ -> Alcotest.failf "expected a parse error in %s" src)
    [ ("program p {\n  int x\n}", 3);  (* missing semicolon *)
      ("program p {\n  x = ;\n}", 2);
      ("program p {\n  for (i = 0; j < 4; i++) { }\n}", 2);
      ("program p {\n  int x;\n  x = 1 $ 2;\n}", 3) ]

let test_comments_and_hex () =
  let p =
    Parser.program_of_string
      "program c { int x; /* multi\nline */ x = 0xFF; // tail\n }"
  in
  match p.Stmt.body with
  | [ Stmt.Assign ("x", Expr.Int 255) ] -> ()
  | _ -> Alcotest.fail "unexpected parse"

(* A malformed or out-of-range numeric literal is a Parse_error at the
   literal's first character, never a Failure from the conversion. *)
let test_bad_literals () =
  List.iter
    (fun (lit, col) ->
      let src = Printf.sprintf "program p {\n  int x;\n  x = %s;\n}" lit in
      match Parser.program_of_string src with
      | exception Parser.Parse_error e ->
        Alcotest.(check (pair int int)) ("position of " ^ lit) (3, col)
          (e.line, e.col)
      | _ -> Alcotest.failf "expected a parse error for %s" lit)
    [ ("1e", 7); ("0x", 7); ("99999999999999999999", 7) ]

let suite =
  [ Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
    QCheck_alcotest.to_alcotest test_expr_roundtrip_qcheck;
    Alcotest.test_case "program roundtrips" `Quick test_program_roundtrips;
    Alcotest.test_case "registry canonical-text fixpoint" `Quick
      test_registry_canonical_text_fixpoint;
    Alcotest.test_case "transformed roundtrips" `Quick
      test_transformed_roundtrips;
    Alcotest.test_case "hand-written source" `Quick test_hand_written_source;
    Alcotest.test_case "error positions" `Quick test_error_positions;
    Alcotest.test_case "comments and hex" `Quick test_comments_and_hex;
    Alcotest.test_case "bad numeric literals" `Quick test_bad_literals ]
