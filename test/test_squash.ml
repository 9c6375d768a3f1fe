(* Correctness of unroll-and-squash: transformed programs must compute
   bit-identical outputs, keep the operator count of the original body,
   and have the structure §4.3/§4.4 promises. *)

open Uas_ir
module Squash = Uas_transform.Squash
module Loop_nest = Uas_analysis.Loop_nest

let squash_fg ~m ~n ~ds =
  let p = Helpers.fg_loop ~m ~n in
  let nest = Helpers.nest_of p "i" in
  (p, Helpers.squash p nest ~ds)

let test_fg_equivalence () =
  List.iter
    (fun (m, n, ds) ->
      let p, out = squash_fg ~m ~n ~ds in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "fg m=%d n=%d ds=%d" m n ds)
        p out.Squash.program)
    [ (4, 3, 2); (8, 5, 4); (8, 1, 2); (6, 2, 3); (16, 4, 8); (2, 7, 2);
      (4, 4, 1); (16, 3, 16) ]

let test_fg_peeling () =
  (* trip counts that do not divide DS force peeling *)
  List.iter
    (fun (m, n, ds) ->
      let p, out = squash_fg ~m ~n ~ds in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "fg peel m=%d n=%d ds=%d" m n ds)
        p out.Squash.program)
    [ (5, 3, 2); (7, 2, 4); (9, 4, 8); (3, 5, 2) ]

let test_ch4_equivalence () =
  List.iter
    (fun (m, n, ds) ->
      let p = Helpers.ch4_loop ~m ~n in
      let nest = Helpers.nest_of p "i" in
      let out = Helpers.squash p nest ~ds in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "ch4 m=%d n=%d ds=%d" m n ds)
        p out.Squash.program)
    [ (4, 3, 2); (8, 5, 4); (6, 6, 3); (8, 2, 2) ]

let test_memory_equivalence () =
  List.iter
    (fun (m, n, ds) ->
      let p = Helpers.memory_loop ~m ~n in
      let nest = Helpers.nest_of p "i" in
      let out = Helpers.squash p nest ~ds in
      Helpers.assert_equivalent
        ~msg:(Printf.sprintf "memory m=%d n=%d ds=%d" m n ds)
        p out.Squash.program)
    [ (4, 3, 2); (8, 4, 4); (6, 2, 2) ]

let test_operator_count_preserved () =
  (* §4.4: squash adds only registers; operators are not duplicated *)
  List.iter
    (fun ds ->
      let p = Helpers.fg_loop ~m:16 ~n:4 in
      let nest = Helpers.nest_of p "i" in
      let before = Stmt.operator_count nest.Loop_nest.inner_body in
      let out = Helpers.squash p nest ~ds in
      let after =
        Stmt.operator_count out.Squash.new_inner_body
      in
      Alcotest.(check int)
        (Printf.sprintf "operator count at ds=%d" ds)
        before after)
    [ 1; 2; 4; 8 ]

let test_steady_trip_count () =
  (* §4.4: the inner iteration count becomes DS*N - (DS-1) *)
  List.iter
    (fun (n, ds) ->
      let p = Helpers.fg_loop ~m:(2 * ds) ~n in
      let nest = Helpers.nest_of p "i" in
      let out = Helpers.squash p nest ~ds in
      let steady =
        match Loop_nest.find_by_outer_index_opt out.Squash.program "i" with
        | Some nst
          when String.equal nst.Loop_nest.inner_index
                 out.Squash.new_inner_index ->
          Loop_nest.inner_trip_count nst
        | _ -> None
      in
      Alcotest.(check (option int))
        (Printf.sprintf "steady trips n=%d ds=%d" n ds)
        (Some ((ds * n) - (ds - 1)))
        steady)
    [ (4, 2); (4, 4); (7, 3); (1, 2) ]

let test_stage_count () =
  let p = Helpers.fg_loop ~m:8 ~n:4 in
  let nest = Helpers.nest_of p "i" in
  let out = Helpers.squash p nest ~ds:4 in
  Alcotest.(check int) "stage count" 4 (List.length out.Squash.stages);
  Alcotest.(check (list string)) "rotated scalars" [ "a"; "b" ]
    (List.sort String.compare out.Squash.rotated)

let test_squashed_schedules_valid () =
  (* the squashed inner body must still yield schedules that pass the
     shared validity checker, at every factor *)
  let module D = Uas_dfg in
  List.iter
    (fun ds ->
      List.iter
        (fun (name, p) ->
          let nest = Helpers.nest_of p "i" in
          let out = Helpers.squash p nest ~ds in
          let g, _ =
            D.Build.build ~inner_index:out.Squash.new_inner_index
              out.Squash.new_inner_body
          in
          List.iter
            (fun (backend, s) ->
              match D.Sched.check_schedule g s with
              | Ok () -> ()
              | Error msgs ->
                Alcotest.failf "%s ds=%d %s: %s" name ds backend
                  (String.concat "; " msgs))
            [ ("list", D.Sched.list_schedule g);
              ("modulo", D.Sched.modulo_schedule g) ])
        [ ("fg", Helpers.fg_loop ~m:16 ~n:4);
          ("memory", Helpers.memory_loop ~m:16 ~n:4) ])
    [ 1; 2; 4; 8 ]

let test_rejects_outer_carried () =
  (* an accumulating outer loop is not parallel: must be rejected *)
  let open Builder in
  let p =
    program "acc"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("s", Types.Tint) ]
      ~arrays:[ input "a" 8; output "o" 8 ]
      [ ("s" <-- int 0);
        for_ "i" ~hi:(int 8)
          [ for_ "j" ~hi:(int 4) [ "s" <-- v "s" + load "a" (v "i") ];
            store "o" (v "i") (v "s") ] ]
  in
  let nest = Helpers.nest_of p "i" in
  match Squash.apply p nest ~ds:2 with
  | Error (Squash.Illegal _) -> ()
  | _ -> Alcotest.fail "expected Illegal"

let test_rejects_overlapping_arrays () =
  (* out[i+1] read as in[i] of the next iteration: distance 1 hazard *)
  let open Builder in
  let p =
    program "overlap"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ input "a" 18; output "o" 18 ]
      [ for_ "i" ~lo:(int 1) ~hi:(int 17)
          [ ("x" <-- load "a" (v "i" - int 1));
            for_ "j" ~hi:(int 3) [ "x" <-- v "x" + int 1 ];
            store "a" (v "i") (v "x");
            store "o" (v "i") (v "x") ] ]
  in
  let nest = Helpers.nest_of p "i" in
  match Squash.apply p nest ~ds:2 with
  | Error (Squash.Illegal _) -> ()
  | _ -> Alcotest.fail "expected Illegal (array distance 1)"

(* The §4.2 prologue squash and jam share, both halves at once: [ptr]
   is an outer-loop induction variable (rewritten to a closed form) and
   the outer trip count 7 is a multiple of no factor below (so the last
   [7 mod DS] iterations are peeled).  The final [ptr] is stored too, so
   the rewrite's exit value is checked with the arrays. *)
let iv_nest_m7 =
  let open Builder in
  program "iv_peel"
    ~locals:
      [ ("i", Types.Tint); ("j", Types.Tint); ("ptr", Types.Tint);
        ("x", Types.Tint) ]
    ~arrays:[ input "a" 16; output "o" 16 ]
    [ ("ptr" <-- int 1);
      for_ "i" ~hi:(int 7)
        [ ("x" <-- load "a" (v "ptr"));
          for_ "j" ~hi:(int 3)
            [ "x" <-- band ((v "x" * int 3) + v "j") (int 1023) ];
          store "o" (v "ptr") (v "x");
          ("ptr" <-- v "ptr" + int 2) ];
      store "o" (int 0) (v "ptr") ]

let test_prologue_iv_and_peel () =
  let p = iv_nest_m7 in
  let nest = Helpers.nest_of p "i" in
  let transforms =
    [ ("squash", fun ds -> (Helpers.squash p nest ~ds).Squash.program);
      ( "jam",
        fun ds -> (Helpers.jam p nest ~ds).Uas_transform.Unroll_and_jam.program
      ) ]
  in
  List.iter
    (fun ds ->
      let v = Uas_analysis.Legality.check nest ~ds in
      Alcotest.(check int) "one induction rewrite" 1
        (List.length v.Uas_analysis.Legality.induction_rewrites);
      Alcotest.(check int) "peeled iterations" (7 mod ds)
        v.Uas_analysis.Legality.needs_peel;
      List.iter
        (fun (name, transform) ->
          Helpers.assert_equivalent
            ~msg:(Printf.sprintf "%s(%d)" name ds)
            p (transform ds))
        transforms)
    [ 2; 3; 4 ]

let test_qcheck_equivalence =
  QCheck.Test.make ~name:"squash fg equivalence (random sizes/factors)"
    ~count:60
    QCheck.(triple (int_range 1 12) (int_range 1 8) (int_range 1 6))
    (fun (m, n, ds) ->
      let p = Helpers.fg_loop ~m ~n in
      let nest = Helpers.nest_of p "i" in
      match Squash.apply p nest ~ds with
      | Ok out ->
        let w = Helpers.random_workload ~seed:(m + (13 * n) + (101 * ds)) p in
        let r1 = Interp.run p w in
        let r2 = Interp.run out.Squash.program w in
        Interp.outputs_equal r1 r2
      | Error Squash.Inner_loop_empty -> n = 0
      | Error _ -> false)

let test_qcheck_random_nests =
  (* structurally random (but legal-by-construction) nests: squash at a
     random factor must preserve outputs exactly *)
  QCheck.Test.make ~name:"squash equivalence (random nests)" ~count:80
    QCheck.(pair Helpers.arbitrary_nest_program (int_range 1 5))
    (fun (p, ds) ->
      let nest = Helpers.nest_of p "i" in
      match Squash.apply p nest ~ds with
      | Ok out ->
        Uas_ir.Validate.is_valid out.Squash.program
        &&
        let w = Helpers.random_workload ~seed:ds p in
        Interp.outputs_equal (Interp.run p w)
          (Interp.run out.Squash.program w)
      | Error (Squash.Illegal _) ->
        (* the generator can produce bodies whose table index is not
           provably in-bounds affine; legality may then reject — that
           is allowed, silently skipping the case *)
        true
      | Error _ -> false)

let test_qcheck_random_nests_jam =
  QCheck.Test.make ~name:"jam equivalence (random nests)" ~count:80
    QCheck.(pair Helpers.arbitrary_nest_program (int_range 1 5))
    (fun (p, ds) ->
      let nest = Helpers.nest_of p "i" in
      match Uas_transform.Unroll_and_jam.apply p nest ~ds with
      | Ok out ->
        let w = Helpers.random_workload ~seed:(ds + 7) p in
        Interp.outputs_equal (Interp.run p w)
          (Interp.run out.Uas_transform.Unroll_and_jam.program w)
      | Error _ -> true)

let suite =
  [ Alcotest.test_case "fg equivalence" `Quick test_fg_equivalence;
    Alcotest.test_case "fg peeling" `Quick test_fg_peeling;
    Alcotest.test_case "ch4 equivalence" `Quick test_ch4_equivalence;
    Alcotest.test_case "memory equivalence" `Quick test_memory_equivalence;
    Alcotest.test_case "operator count preserved" `Quick
      test_operator_count_preserved;
    Alcotest.test_case "steady trip count" `Quick test_steady_trip_count;
    Alcotest.test_case "stage count" `Quick test_stage_count;
    Alcotest.test_case "squashed schedules valid" `Quick
      test_squashed_schedules_valid;
    Alcotest.test_case "rejects outer-carried scalar" `Quick
      test_rejects_outer_carried;
    Alcotest.test_case "rejects overlapping arrays" `Quick
      test_rejects_overlapping_arrays;
    Alcotest.test_case "prologue: IV rewrite and peel" `Quick
      test_prologue_iv_and_peel;
    QCheck_alcotest.to_alcotest test_qcheck_equivalence;
    QCheck_alcotest.to_alcotest test_qcheck_random_nests;
    QCheck_alcotest.to_alcotest test_qcheck_random_nests_jam ]
