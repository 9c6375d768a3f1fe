(* The enabling/auxiliary transformations added beyond the core set:
   loop interchange, invariant code motion, scalarization and
   flattening — equivalence plus the structural facts each one
   promises. *)

open Uas_ir
module T = Uas_transform
module B = Builder

(* --- interchange --- *)

let matrix_copy ~m ~n =
  B.program "mcopy"
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint) ]
    ~arrays:[ B.input "a" (m * n); B.output "b" (m * n) ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.for_ "j" ~hi:(B.int n)
            [ B.store "b"
                B.((v "i" * int n) + v "j")
                (B.load "a" B.((v "i" * int n) + v "j")) ] ] ]

let test_interchange_equivalence () =
  let p = matrix_copy ~m:4 ~n:6 in
  let q = Helpers.interchange p ~outer_index:"i" in
  Helpers.assert_equivalent ~msg:"interchange" p q;
  (* the loops really did swap *)
  (match q.Stmt.body with
  | [ Stmt.For l ] -> Alcotest.(check string) "outer is j" "j" l.Stmt.index
  | _ -> Alcotest.fail "unexpected shape")

let test_interchange_rejects_imperfect () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  match T.Interchange.apply p ~outer_index:"i" with
  | Error T.Interchange.Not_perfect -> ()
  | _ -> Alcotest.fail "expected Not_perfect"

(* b[i][j] = b[i-1][j+dj] + 1 over the output array b *)
let carried ~dj =
  let n = 5 in
  B.program "carried"
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint) ]
    ~arrays:[ B.output "b" (n * n) ]
    [ B.for_ "i" ~lo:(B.int 1) ~hi:(B.int n)
        [ B.for_ "j" ~hi:(B.int n)
            [ B.store "b"
                B.((v "i" * int n) + v "j")
                B.(load "b" (((v "i" - int 1) * int n) + v "j" + int dj)
                   + int 1) ] ] ]

let test_interchange_rejects_carried () =
  (* distance (1,-1): interchange would run the read before the write
     it depends on *)
  (match T.Interchange.apply (carried ~dj:1) ~outer_index:"i" with
  | Error (T.Interchange.Carried_dependence _) -> ()
  | _ -> Alcotest.fail "expected Carried_dependence");
  (* distance (1,0) keeps its direction once the loops swap *)
  let p = carried ~dj:0 in
  Helpers.assert_equivalent ~msg:"interchange over a (1,0) dependence" p
    (Helpers.interchange p ~outer_index:"i")

let test_interchange_huge_nest () =
  (* 3 levels of 2,000,000 trips: the distance-vector cross product is
     far over budget (and would wrap a 63-bit product), so the analysis
     answers unknown at once instead of enumerating *)
  let n = 2_000_000 in
  let ijk = B.(v "i" + v "j" + v "k") in
  let p =
    B.program "huge"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("k", Types.Tint) ]
      ~arrays:[ B.output "b" 16 ]
      [ B.for_ "i" ~hi:(B.int n)
          [ B.for_ "j" ~hi:(B.int n)
              [ B.for_ "k" ~hi:(B.int n)
                  [ B.store "b" ijk B.(load "b" (ijk + int 1) + int 1) ] ] ] ]
  in
  match T.Interchange.apply p ~outer_index:"i" with
  | Error (T.Interchange.Carried_dependence "b") -> ()
  | Error f ->
    Alcotest.failf "unexpected failure: %a" T.Interchange.pp_failure f
  | Ok _ -> Alcotest.fail "expected Carried_dependence"

(* --- hoisting --- *)

let test_hoist_equivalence_and_motion () =
  let p =
    B.program "hoist"
      ~params:[ ("k", Types.Tint) ]
      ~locals:
        [ ("j", Types.Tint); ("c", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 8; B.input "t" 4; B.output "b" 8 ]
      [ B.for_ "j" ~hi:(B.int 8)
          [ B.("c" <-- load "t" (int 2) * v "k");  (* invariant *)
            B.("x" <-- load "a" (v "j") + v "c");
            B.store "b" (B.v "j") (B.v "x") ] ]
  in
  let q = T.Hoist.apply p in
  Helpers.assert_equivalent ~msg:"hoist" p q;
  (* the invariant assignment left the loop *)
  let in_loop =
    Stmt.fold_list
      (fun acc s ->
        match s with Stmt.For l -> acc + List.length l.Stmt.body | _ -> acc)
      0 q.Stmt.body
  in
  Alcotest.(check int) "loop body shrank" 2 in_loop;
  (* and the loop's memory traffic went down *)
  let mem stmts = Stmt.memory_reference_count stmts in
  let loop_mem prog =
    Stmt.fold_list
      (fun acc s -> match s with Stmt.For l -> acc + mem l.Stmt.body | _ -> acc)
      0 prog.Stmt.body
  in
  Alcotest.(check bool) "fewer loads inside" true (loop_mem q < loop_mem p)

let test_hoist_keeps_variant () =
  let p =
    B.program "novariant"
      ~locals:[ ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 8; B.output "b" 8 ]
      [ B.for_ "j" ~hi:(B.int 8)
          [ B.("x" <-- load "a" (v "j"));  (* depends on j *)
            B.store "b" (B.v "j") (B.v "x") ] ]
  in
  let q = T.Hoist.apply p in
  Alcotest.(check bool) "unchanged" true
    (Stmt.equal_list p.Stmt.body q.Stmt.body)

(* [b = 0] is invariant and [b]'s only definition, but the body reads
   [b] before it: the first iteration must see the value loaded before
   the loop, so the assignment stays *)
let test_hoist_keeps_read_before_def () =
  let p =
    B.program "readfirst"
      ~locals:[ ("j", Types.Tint); ("acc", Types.Tint); ("b", Types.Tint) ]
      ~arrays:[ B.input "a" 1; B.output "o" 1 ]
      [ B.("b" <-- load "a" (int 0));
        B.("acc" <-- int 0);
        B.for_ "j" ~hi:(B.int 4)
          [ B.("acc" <-- v "acc" + v "b"); B.("b" <-- int 0) ];
        B.store "o" (B.int 0) (B.v "acc") ]
  in
  let q = T.Hoist.apply p in
  Helpers.assert_equivalent ~msg:"hoist read-before-def" p q;
  Alcotest.(check bool) "unchanged" true
    (Stmt.equal_list p.Stmt.body q.Stmt.body)

(* --- scalarization --- *)

let test_scalarize_equivalence () =
  let p =
    B.program "scal"
      ~params:[ ("base", Types.Tint) ]
      ~locals:[ ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 8; B.input "coef" 4; B.output "b" 8 ]
      [ B.for_ "j" ~hi:(B.int 8)
          [ B.("x" <-- load "a" (v "j") * load "coef" (int 1) + load "coef" (int 1));
            B.store "b" (B.v "j") (B.v "x") ] ]
  in
  let q = T.Scalarize.apply p ~index:"j" in
  Helpers.assert_equivalent ~msg:"scalarize" p q;
  (* two occurrences of coef[1] collapsed into one pre-loop load *)
  let loop_mem prog =
    Stmt.fold_list
      (fun acc s ->
        match s with
        | Stmt.For l -> acc + Stmt.memory_reference_count l.Stmt.body
        | _ -> acc)
      0 prog.Stmt.body
  in
  Alcotest.(check int) "loads in loop" 2 (loop_mem q)

let test_scalarize_skips_stored_arrays () =
  let p =
    B.program "scal2"
      ~locals:[ ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.local_array "buf" 8; B.output "b" 8 ]
      [ B.for_ "j" ~hi:(B.int 8)
          [ B.("x" <-- load "buf" (int 0));
            B.store "buf" (B.int 0) B.(v "x" + int 1);
            B.store "b" (B.v "j") (B.v "x") ] ]
  in
  let q = T.Scalarize.apply p ~index:"j" in
  Helpers.assert_equivalent ~msg:"scalarize stored" p q;
  Alcotest.(check bool) "unchanged" true
    (Stmt.equal_list p.Stmt.body q.Stmt.body)

let test_scalarize_improves_skipjack () =
  (* the Skipjack-mem F-table index varies, but hoisting+scalarizing a
     synthetic invariant key fetch shows the ResMII drop *)
  let p =
    B.program "keyload"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("w", Types.Tint);
          ("k0", Types.Tint) ]
      ~arrays:[ B.input "data" 8; B.input "key" 4; B.output "out" 8 ]
      [ B.for_ "i" ~hi:(B.int 8)
          [ B.("w" <-- load "data" (v "i"));
            B.for_ "j" ~hi:(B.int 4)
              [ B.("w" <-- bxor (v "w" + load "key" (int 3)) (int 99)) ];
            B.store "out" (B.v "i") (B.v "w") ] ]
  in
  let q = T.Scalarize.apply p ~index:"j" in
  Helpers.assert_equivalent ~msg:"scalarize key" p q;
  let kernel prog =
    let nest = Uas_analysis.Loop_nest.find_by_outer_index prog "i" in
    let g, _ = Uas_dfg.Build.build ~inner_index:"j" nest.Uas_analysis.Loop_nest.inner_body in
    Uas_dfg.Graph.memory_op_count g
  in
  Alcotest.(check int) "memory refs before" 1 (kernel p);
  Alcotest.(check int) "memory refs after" 0 (kernel q)

let base_suite =
  [ Alcotest.test_case "interchange equivalence" `Quick
      test_interchange_equivalence;
    Alcotest.test_case "interchange rejects imperfect" `Quick
      test_interchange_rejects_imperfect;
    Alcotest.test_case "interchange rejects carried" `Quick
      test_interchange_rejects_carried;
    Alcotest.test_case "hoist equivalence" `Quick
      test_hoist_equivalence_and_motion;
    Alcotest.test_case "hoist keeps variant" `Quick test_hoist_keeps_variant;
    Alcotest.test_case "hoist keeps read-before-def" `Quick
      test_hoist_keeps_read_before_def;
    Alcotest.test_case "scalarize equivalence" `Quick
      test_scalarize_equivalence;
    Alcotest.test_case "scalarize skips stored arrays" `Quick
      test_scalarize_skips_stored_arrays;
    Alcotest.test_case "scalarize removes kernel loads" `Quick
      test_scalarize_improves_skipjack ]

(* --- flattening --- *)

let test_flatten_equivalence () =
  List.iter
    (fun (m, n) ->
      let p = matrix_copy ~m ~n in
      let q = Helpers.flatten p ~outer_index:"i" in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "flatten m=%d n=%d" m n)
        p q;
      (* a single loop remains *)
      let loops =
        Stmt.fold_list
          (fun k s -> match s with Stmt.For _ -> k + 1 | _ -> k)
          0 q.Stmt.body
      in
      Alcotest.(check int) "one loop" 1 loops)
    [ (4, 6); (1, 5); (5, 1); (3, 3) ]

let test_flatten_rejects_imperfect () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  match T.Flatten.apply p ~outer_index:"i" with
  | Error T.Flatten.Not_perfect -> ()
  | _ -> Alcotest.fail "expected Not_perfect"

let test_flatten_concentrates_time () =
  (* the flattening motivation in §5.2: all execution time lands in one
     loop *)
  let p = matrix_copy ~m:6 ~n:8 in
  let q = Helpers.flatten p ~outer_index:"i" in
  let r = Interp.run q (Helpers.random_workload q) in
  let reports = Interp.loop_reports r in
  Alcotest.(check int) "one profiled loop" 1 (List.length reports);
  Alcotest.(check bool) "it dominates" true
    ((List.hd reports).Interp.lr_fraction > 0.95)

let extra_suite_flatten =
  [ Alcotest.test_case "flatten equivalence" `Quick test_flatten_equivalence;
    Alcotest.test_case "flatten rejects imperfect" `Quick
      test_flatten_rejects_imperfect;
    Alcotest.test_case "flatten concentrates time" `Quick
      test_flatten_concentrates_time;
    Alcotest.test_case "interchange huge nest" `Quick
      test_interchange_huge_nest ]

let suite = base_suite @ extra_suite_flatten
