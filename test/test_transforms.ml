(* Correctness of the classic transformations (Chapter 3): peeling,
   unroll-and-jam, if-conversion and the scalar optimizations — all
   checked by interpreter equivalence, plus the structural facts the
   paper states (e.g. jam multiplies the operator count by the unroll
   factor). *)

open Uas_ir
module T = Uas_transform
module Loop_nest = Uas_analysis.Loop_nest


(* --- unroll-and-jam --- *)

let test_jam_equivalence () =
  List.iter
    (fun (mk, name) ->
      List.iter
        (fun (m, n, ds) ->
          let p : Stmt.program = mk ~m ~n in
          let nest = Helpers.nest_of p "i" in
          let out = Helpers.jam p nest ~ds in
          Helpers.assert_equivalent
            ~msg:(Printf.sprintf "jam %s m=%d n=%d ds=%d" name m n ds)
            p out.T.Unroll_and_jam.program)
        [ (4, 3, 2); (8, 5, 4); (6, 2, 3); (5, 3, 2); (9, 2, 4) ])
    [ (Helpers.fg_loop, "fg"); (Helpers.memory_loop, "checksum") ]

let test_jam_multiplies_operators () =
  List.iter
    (fun ds ->
      let p = Helpers.fg_loop ~m:16 ~n:4 in
      let nest = Helpers.nest_of p "i" in
      let before = Stmt.operator_count nest.Loop_nest.inner_body in
      let out = Helpers.jam p nest ~ds in
      Alcotest.(check int)
        (Printf.sprintf "jam(%d) operators" ds)
        (ds * before)
        (Stmt.operator_count out.T.Unroll_and_jam.new_inner_body))
    [ 1; 2; 4; 8 ]

(* --- peeling --- *)

let test_peel_equivalence () =
  List.iter
    (fun (m, n, k) ->
      let p = Helpers.fg_loop ~m ~n in
      let nest = Helpers.nest_of p "i" in
      let q, _ = T.Peel.peel_back p nest ~iterations:k in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "peel m=%d n=%d k=%d" m n k)
        p q)
    [ (8, 3, 1); (8, 3, 3); (8, 3, 8); (4, 2, 0) ]

let test_peel_too_many () =
  let p = Helpers.fg_loop ~m:4 ~n:2 in
  let nest = Helpers.nest_of p "i" in
  match T.Peel.peel_back p nest ~iterations:5 with
  | exception Types.Ir_error _ -> ()
  | _ -> Alcotest.fail "expected Ir_error"

(* --- if-conversion --- *)

let branchy_program ~m =
  let open Builder in
  program "branchy"
    ~locals:
      [ ("j", Types.Tint); ("x", Types.Tint); ("y", Types.Tint);
        ("z", Types.Tint) ]
    ~arrays:[ input "a" m; output "b" m ]
    [ for_ "j" ~hi:(int m)
        [ ("x" <-- load "a" (v "j"));
          if_ (v "x" > int 100)
            [ ("y" <-- v "x" - int 100); ("z" <-- v "y" * int 2) ]
            [ ("y" <-- v "x" + int 1); ("z" <-- v "y") ];
          store "b" (v "j") (v "z" + v "y") ] ]

let test_ifconv_equivalence () =
  let p = branchy_program ~m:16 in
  let q = T.Ifconv.apply p in
  Helpers.assert_equivalent ~msg:"if-conversion" p q;
  (* the loop body must now be a single basic block *)
  let straight =
    Stmt.fold_list
      (fun acc s ->
        match s with
        | Stmt.For l -> acc && Stmt.is_straight_line l.body
        | _ -> acc)
      true q.Stmt.body
  in
  Alcotest.(check bool) "straight-line after ifconv" true straight

let test_ifconv_enables_squash () =
  let p = let open Builder in
    program "branchy_nest"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint);
          ("y", Types.Tint) ]
      ~arrays:[ input "a" 8; output "b" 8 ]
      [ for_ "i" ~hi:(int 8)
          [ ("x" <-- load "a" (v "i"));
            for_ "j" ~hi:(int 5)
              [ if_ (band (v "x") (int 1) == int 1)
                  [ ("y" <-- v "x" * int 3 + int 1) ]
                  [ ("y" <-- shr (v "x") (int 1)) ];
                ("x" <-- band (v "y") (int 4095)) ];
            store "b" (v "i") (v "x") ] ]
  in
  let nest0 = Helpers.nest_of p "i" in
  Alcotest.(check bool) "squash illegal before ifconv" false
    (Uas_analysis.Legality.check nest0 ~ds:2).Uas_analysis.Legality.ok;
  let q = T.Ifconv.apply p in
  let nest = Helpers.nest_of q "i" in
  let out = Helpers.squash q nest ~ds:2 in
  Helpers.assert_equivalent ~msg:"ifconv+squash" p out.T.Squash.program

(* --- scalar optimizations --- *)

let test_scalar_opts_equivalence () =
  List.iter
    (fun (mk, name) ->
      let p : Stmt.program = mk ~m:6 ~n:4 in
      let q = T.Scalar_opts.cleanup p in
      Helpers.assert_equivalent ~msg:("cleanup " ^ name) p q)
    [ (Helpers.fg_loop, "fg"); (Helpers.memory_loop, "checksum");
      ((fun ~m ~n -> Helpers.ch4_loop ~m ~n), "ch4") ]

let test_strength_reduction () =
  let open Builder in
  let p =
    program "sr"
      ~locals:[ ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ input "a" 8; output "b" 8 ]
      [ for_ "j" ~hi:(int 8)
          [ ("x" <-- load "a" (v "j") * int 8);
            store "b" (v "j") (v "x" + v "j" * int 4) ] ]
  in
  let q = T.Scalar_opts.strength_reduce p in
  Helpers.assert_equivalent ~msg:"strength reduction" p q;
  (* no multiplications survive *)
  let muls =
    Stmt.fold_exprs
      (fun acc e ->
        Expr.fold
          (fun acc e ->
            match e with
            | Expr.Binop (Types.Mul, _, _) -> Stdlib.( + ) acc 1
            | _ -> acc)
          acc e)
      0 q.Stmt.body
  in
  Alcotest.(check int) "multiplies eliminated" 0 muls

let test_dce () =
  let open Builder in
  let p =
    program "dce"
      ~locals:[ ("x", Types.Tint); ("y", Types.Tint); ("z", Types.Tint) ]
      ~arrays:[ input "a" 4; output "b" 4 ]
      [ ("x" <-- load "a" (int 0));
        ("y" <-- v "x" + int 1);  (* dead *)
        ("z" <-- v "x" * int 2);
        store "b" (int 0) (v "z") ]
  in
  let q =
    T.Scalar_opts.dead_code ~live_out:Stmt.Sset.empty p
  in
  Helpers.assert_equivalent ~msg:"dce" p q;
  Alcotest.(check bool) "dead assign removed" true
    (Stdlib.( < ) (Stmt.size q.Stmt.body) (Stmt.size p.Stmt.body))

(* --- combined jam + squash (§2: "combine both techniques") --- *)

let test_combined_jam_then_squash () =
  List.iter
    (fun (m, n, jam_ds, squash_ds) ->
      let p = Helpers.fg_loop ~m ~n in
      let nest = Helpers.nest_of p "i" in
      let jammed = (Helpers.jam p nest ~ds:jam_ds).T.Unroll_and_jam.program in
      let nest2 = Helpers.nest_of jammed "i" in
      let out = Helpers.squash jammed nest2 ~ds:squash_ds in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "jam(%d)+squash(%d) m=%d n=%d" jam_ds squash_ds m n)
        p out.T.Squash.program)
    [ (8, 3, 2, 2); (16, 2, 2, 4); (8, 4, 4, 2) ]

let test_qcheck_jam =
  QCheck.Test.make ~name:"jam equivalence (random sizes/factors)" ~count:50
    QCheck.(triple (int_range 1 10) (int_range 1 6) (int_range 1 5))
    (fun (m, n, ds) ->
      let p = Helpers.fg_loop ~m ~n in
      let nest = Helpers.nest_of p "i" in
      let out = Helpers.jam p nest ~ds in
      let w = Helpers.random_workload ~seed:(m + (7 * n) + (31 * ds)) p in
      Interp.outputs_equal (Interp.run p w)
        (Interp.run out.T.Unroll_and_jam.program w))

let suite =
  [ Alcotest.test_case "jam equivalence" `Quick test_jam_equivalence;
    Alcotest.test_case "jam multiplies operators" `Quick
      test_jam_multiplies_operators;
    Alcotest.test_case "peel equivalence" `Quick test_peel_equivalence;
    Alcotest.test_case "peel too many" `Quick test_peel_too_many;
    Alcotest.test_case "if-conversion" `Quick test_ifconv_equivalence;
    Alcotest.test_case "ifconv enables squash" `Quick
      test_ifconv_enables_squash;
    Alcotest.test_case "scalar opts" `Quick test_scalar_opts_equivalence;
    Alcotest.test_case "strength reduction" `Quick test_strength_reduction;
    Alcotest.test_case "dead code elimination" `Quick test_dce;
    Alcotest.test_case "combined jam+squash" `Quick
      test_combined_jam_then_squash;
    QCheck_alcotest.to_alcotest test_qcheck_jam ]
