(* The surface-syntax parser: round-trips with the pretty-printer,
   precise error positions, hand-written sources, and the structural
   program digest that stands in for the printed text as an identity. *)

open Uas_ir
module S = Uas_bench_suite
module B = Builder

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

(* The canonical-text fixpoint: for every registry benchmark,
   printing, re-parsing and printing again yields the same bytes, so
   a program and its parsed round-trip print alike. *)
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

(* --- the structural program digest (Encode) --- *)

let digest_differs label p q =
  Alcotest.(check bool) (label ^ ": digests differ") false
    (Digest.equal (Encode.digest p) (Encode.digest q))

(* Each pair differs structurally where its printed text is equal, or
   where a naive concatenation of the parts would collide; -0. and 0.
   print alike and must also hash alike. *)
let test_encode_injective () =
  let with_body body = B.program "p" ~locals:[ ("x", Types.Tint) ] body in
  let assign e = with_body [ B.("x" <-- e) ] in
  let same_text label p q =
    Alcotest.(check string) (label ^ ": same text") (Pp.program_to_string p)
      (Pp.program_to_string q)
  in
  digest_differs "params ab,c vs a,bc"
    (B.program "p" ~params:[ ("ab", Types.Tint); ("c", Types.Tint) ] [])
    (B.program "p" ~params:[ ("a", Types.Tint); ("bc", Types.Tint) ] []);
  digest_differs "rom {1, 2} vs {12}"
    (B.program "p" ~roms:[ B.rom_decl "r" [| 1; 2 |] ] [])
    (B.program "p" ~roms:[ B.rom_decl "r" [| 12 |] ] []);
  digest_differs "loop step 1 vs 2"
    (with_body [ B.for_ "x" ~hi:(B.int 4) [] ])
    (with_body [ B.for_ "x" ~hi:(B.int 4) ~step:2 [] ]);
  digest_differs "input vs output array"
    (B.program "p" ~arrays:[ B.input "a" 4 ] [])
    (B.program "p" ~arrays:[ B.output "a" 4 ] []);
  let literal = assign (Expr.Int (-3))
  and negated = assign (Expr.Unop (Types.Neg, Expr.Int 3)) in
  same_text "-3" literal negated;
  digest_differs "Int (-3) vs Unop (Neg, Int 3)" literal negated;
  let one = assign (B.flt 1.0) and near = assign (B.flt 1.0000001) in
  same_text "%g floats" one near;
  digest_differs "1.0 vs 1.0000001" one near;
  let zero = assign (B.flt 0.) and minus_zero = assign (B.flt (-0.)) in
  same_text "0 and -0" zero minus_zero;
  Alcotest.(check string) "-0. and 0. share a digest"
    (Digest.to_hex (Encode.digest zero))
    (Digest.to_hex (Encode.digest minus_zero))

(* Over [items], equal [fine] keys must mean equal [coarse] keys;
   returns how many distinct keys each gives.  Equal counts then mean
   the two keys partition [items] identically. *)
let refines ~what ~fine ~coarse items =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let f = fine x and c = coarse x in
      match Hashtbl.find_opt seen f with
      | Some c' when c' <> c ->
        Alcotest.failf "%s: equal digests, different texts" what
      | Some _ -> ()
      | None -> Hashtbl.add seen f c)
    items;
  let distinct key = List.length (List.sort_uniq compare (List.map key items)) in
  (distinct fine, distinct coarse)

let run_ok what cu passes =
  match Uas_pass.Pass.run cu passes with
  | Ok cu -> cu
  | Error d -> Alcotest.failf "%s: %s" what (Uas_pass.Diag.to_string d)

(* The programs of the 50 Table 6.2 cells, as the store keys them:
   after each version's transform passes. *)
let table_cell_programs () =
  List.concat_map
    (fun (b : S.Registry.benchmark) ->
      List.map
        (fun v ->
          let cu =
            Uas_pass.Cu.make b.S.Registry.b_program
              ~outer_index:b.S.Registry.b_outer_index
              ~inner_index:b.S.Registry.b_inner_index
          in
          Uas_pass.Cu.program
            (run_ok (Uas_core.Nimble.version_name v) cu
               (Uas_core.Nimble.transform_passes v)))
        Uas_core.Nimble.paper_versions)
    (S.Registry.all ())

(* The planner's phase-1 units over all six benchmarks: each candidate
   after its enabling prefix, keyed like [Planner]'s groups by either
   identity.  Prefixes the planner skips (interchange of an imperfect
   nest) yield no unit. *)
let planner_units () =
  List.concat_map
    (fun (b : S.Registry.benchmark) ->
      let p = b.S.Registry.b_program and outer = b.S.Registry.b_outer_index in
      let depth =
        Option.value ~default:2 (Uas_analysis.Loop_nest.depth_at p outer)
      in
      List.filter_map
        (fun (c : Uas_core.Planner.candidate) ->
          let prefix, factor =
            match List.rev c.c_sequence with
            | "squash" :: rev -> (List.rev rev, Some c.c_ds)
            | _ -> (c.c_sequence, None)
          in
          let cu =
            Uas_pass.Cu.make p ~outer_index:outer
              ~inner_index:b.S.Registry.b_inner_index
          in
          match
            Uas_pass.Pass.run cu
              (Uas_pass.Stages.analyze
              :: List.map (fun n -> Uas_transform.Rewrite.pass n) prefix)
          with
          | Error _ -> None
          | Ok u ->
            let key id =
              ( id u,
                Uas_pass.Cu.outer_index u,
                Uas_pass.Cu.inner_index u,
                factor,
                c.c_pipelined )
            in
            Some
              ( key (fun u -> Digest.to_hex (Uas_pass.Cu.digest u)),
                key (fun u -> Pp.program_to_string (Uas_pass.Cu.program u)) ))
        (Uas_core.Planner.candidates ~depth ()))
    (S.Registry.all () @ S.Registry.extras ())

(* Digests never merge programs whose canonical texts differ: on the
   random-nest generators (each program next to its parsed
   round-trip), the registry kernels, the Table 6.2 cell programs and
   the planner's prefixed units.  On the real inputs both identities
   also group the programs identically. *)
let test_digest_refines_text () =
  let text = Pp.program_to_string and digest p = Digest.to_hex (Encode.digest p) in
  let rng = Random.State.make [| 421 |] in
  List.iter
    (fun (name, gen) ->
      let ps = List.init 150 (fun _ -> gen rng) in
      let reparsed = List.map (fun p -> Parser.program_of_string (text p)) ps in
      ignore (refines ~what:name ~fine:digest ~coarse:text (ps @ reparsed)))
    [ ("nest", Helpers.gen_nest_program);
      ("diff nest", Helpers.gen_diff_nest_program);
      ("perfect nest", Helpers.gen_perfect_nest_program);
      ("nest3", Helpers.gen_nest3_program) ];
  let kernels =
    List.map
      (fun (b : S.Registry.benchmark) -> b.S.Registry.b_program)
      (S.Registry.all () @ S.Registry.extras ())
  in
  let n = List.length kernels in
  Alcotest.(check (pair int int)) "registry kernels: all distinct" (n, n)
    (refines ~what:"registry" ~fine:digest ~coarse:text kernels);
  let cells = table_cell_programs () in
  Alcotest.(check int) "Table 6.2 cells" 50 (List.length cells);
  Alcotest.(check (pair int int)) "cells: 45 distinct programs" (45, 45)
    (refines ~what:"cells" ~fine:digest ~coarse:text cells);
  let units = planner_units () in
  Alcotest.(check int) "planner prefixed units" 120 (List.length units);
  Alcotest.(check (pair int int)) "planner: 48 groups" (48, 48)
    (refines ~what:"planner" ~fine:fst ~coarse:snd units)

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
    Alcotest.test_case "bad numeric literals" `Quick test_bad_literals;
    Alcotest.test_case "encoding separates what text merges" `Quick
      test_encode_injective;
    Alcotest.test_case "digest refines canonical text" `Quick
      test_digest_refines_text ]
