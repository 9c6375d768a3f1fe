(* The analysis substrate: def/use, loop-nest discovery,
   induction variables, dependence analysis, legality and SSA. *)

open Uas_ir
module A = Uas_analysis
module B = Builder
module Sset = Stmt.Sset

let set_testable =
  Alcotest.testable
    (fun ppf s -> Fmt.(list ~sep:(any ", ") string) ppf (Sset.elements s))
    Sset.equal

let sset l = Sset.of_list l

(* --- def/use --- *)

let fg_body =
  [ B.("b" <-- band (v "a" + int 3) (int 255));
    B.("a" <-- bxor (v "b" + v "b") (int 21)) ]

let test_upward_exposed () =
  Alcotest.check set_testable "fg body" (sset [ "a" ])
    (A.Def_use.upward_exposed fg_body);
  Alcotest.check set_testable "carried" (sset [ "a" ])
    (A.Def_use.loop_carried fg_body)

let test_for_summary_hides_index () =
  let s =
    B.for_ "j" ~hi:(B.int 4) [ B.("x" <-- v "j" + v "k") ]
  in
  let du = A.Def_use.of_stmt s in
  Alcotest.check set_testable "uses" (sset [ "k" ]) du.A.Def_use.du_uses;
  Alcotest.check set_testable "defs" (sset [ "j"; "x" ]) du.A.Def_use.du_defs

let test_used_outside_nest () =
  (* only reads outside the nest count: the nest's own reads of a and b
     do not, a read of a after the nest does *)
  let nest_of p = A.Loop_nest.find_by_outer_index p "i" in
  let p = Helpers.fg_loop ~m:4 ~n:2 in
  Alcotest.check set_testable "nothing after the nest" Sset.empty
    (A.Def_use.used_outside_nest p (nest_of p));
  let p' =
    { p with
      Stmt.body = p.Stmt.body @ [ B.store "data_out" (B.int 0) (B.v "a") ] }
  in
  Alcotest.check set_testable "a read after the nest" (sset [ "a" ])
    (A.Def_use.used_outside_nest p' (nest_of p'))

(* --- loop nests --- *)

let test_find_nest () =
  let p = Helpers.fg_loop ~m:4 ~n:2 in
  let nests = A.Loop_nest.find p in
  Alcotest.(check int) "one nest" 1 (List.length nests);
  Alcotest.(check int) "depth 2" 2 (A.Loop_nest.depth (List.hd nests));
  let n = A.Loop_nest.pair_at (List.hd nests) 0 in
  Alcotest.(check string) "outer" "i" n.A.Loop_nest.outer_index;
  Alcotest.(check string) "inner" "j" n.A.Loop_nest.inner_index;
  Alcotest.(check int) "pre size" 1 (List.length n.A.Loop_nest.pre);
  Alcotest.(check int) "post size" 1 (List.length n.A.Loop_nest.post);
  Alcotest.(check (option int)) "outer trips" (Some 4)
    (A.Loop_nest.outer_trip_count n);
  Alcotest.(check (option int)) "inner trips" (Some 2)
    (A.Loop_nest.inner_trip_count n)

let test_nest_roundtrip () =
  let p = Helpers.ch4_loop ~m:4 ~n:3 in
  let n = A.Loop_nest.find_by_outer_index p "i" in
  let q =
    A.Loop_nest.replace p ~outer_index:"i" [ A.Loop_nest.pair_to_stmt n ]
  in
  Alcotest.(check bool) "roundtrip equal" true
    (Stmt.equal_list p.Stmt.body q.Stmt.body)

let test_triple_nest_found () =
  (* a 3-deep nest is one maximal nest headed at the outer level; the
     summary catalogs every addressable level with its suffix depth *)
  let p =
    B.program "deep"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("k", Types.Tint);
          ("x", Types.Tint) ]
      ~arrays:[ B.output "o" 4 ]
      [ B.for_ "i" ~hi:(B.int 2)
          [ B.for_ "j" ~hi:(B.int 2)
              [ B.for_ "k" ~hi:(B.int 2) [ B.("x" <-- v "x" + int 1) ] ];
            B.store "o" (B.v "i") (B.v "x") ] ]
  in
  let nests = A.Loop_nest.find p in
  Alcotest.(check int) "one nest found" 1 (List.length nests);
  let n = List.hd nests in
  Alcotest.(check int) "depth 3" 3 (A.Loop_nest.depth n);
  Alcotest.(check string) "headed at i" "i"
    (List.hd n.A.Loop_nest.levels).A.Loop_nest.l_index;
  Alcotest.(check (list (pair string int)))
    "summary catalogs i and j" [ ("i", 3); ("j", 2) ] (A.Loop_nest.summary p);
  (* the pair views: (i, j) wraps the k loop; (j, k) is loop-free *)
  let pij = A.Loop_nest.pair_at n 0 in
  Alcotest.(check string) "pair 0 inner" "j" pij.A.Loop_nest.inner_index;
  let has_loop =
    List.exists (function Stmt.For _ -> true | _ -> false)
  in
  Alcotest.(check bool) "pair 0 inner body holds the k loop" true
    (has_loop pij.A.Loop_nest.inner_body);
  let pjk = A.Loop_nest.pair_at n 1 in
  Alcotest.(check string) "pair 1 outer" "j" pjk.A.Loop_nest.outer_index;
  Alcotest.(check bool) "pair 1 inner body loop-free" false
    (has_loop pjk.A.Loop_nest.inner_body)

(* --- induction variables --- *)

let test_induction_found_and_rewritten () =
  let p =
    B.program "iv"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("ptr", Types.Tint);
          ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 64; B.output "o" 64 ]
      [ B.("ptr" <-- int 5);
        B.for_ "i" ~hi:(B.int 8)
          [ B.("x" <-- load "a" (v "ptr"));
            B.for_ "j" ~hi:(B.int 3) [ B.("x" <-- v "x" + v "j") ];
            B.store "o" (B.v "ptr") (B.v "x");
            B.("ptr" <-- v "ptr" + int 2) ] ]
  in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  let ivs = A.Induction.find nest in
  Alcotest.(check int) "one IV" 1 (List.length ivs);
  let iv = List.hd ivs in
  Alcotest.(check string) "name" "ptr" iv.A.Induction.iv_var;
  Alcotest.(check int) "step" 2 iv.A.Induction.iv_step;
  let q, _ = A.Induction.rewrite p nest iv in
  Helpers.assert_equivalent ~msg:"IV rewrite" p q;
  (* after the rewrite the nest no longer carries ptr *)
  let nest' = A.Loop_nest.find_by_outer_index q "i" in
  Alcotest.(check bool) "no carried scalar" false
    (Sset.mem "ptr" (A.Legality.outer_carried_scalars nest'))

let test_induction_enables_squash () =
  let p =
    B.program "iv2"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("ptr", Types.Tint);
          ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 64; B.output "o" 64 ]
      [ B.("ptr" <-- int 0);
        B.for_ "i" ~hi:(B.int 8)
          [ B.("x" <-- load "a" (v "ptr"));
            B.for_ "j" ~hi:(B.int 3)
              [ B.("x" <-- band (v "x" + int 1) (int 255)) ];
            B.store "o" (B.v "ptr") (B.v "x");
            B.("ptr" <-- v "ptr" + int 1) ] ]
  in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  let verdict = A.Legality.check nest ~ds:2 in
  Alcotest.(check bool) "legal via IV rewrite" true verdict.A.Legality.ok;
  Alcotest.(check int) "one rewrite needed" 1
    (List.length verdict.A.Legality.induction_rewrites);
  let out = Helpers.squash p nest ~ds:2 in
  Helpers.assert_equivalent ~msg:"squash with IV" p
    out.Uas_transform.Squash.program

(* --- dependence analysis --- *)

let nest_of_accesses ~m ~n ~wr_idx ~rd_idx =
  let p =
    B.program "dep"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.local_array "a" 256; B.output "o" 256 ]
      [ B.for_ "i" ~lo:(B.int 8) ~hi:(B.int (8 + m))
          [ B.("x" <-- load "a" rd_idx);
            B.for_ "j" ~hi:(B.int n) [ B.("x" <-- v "x" + int 1) ];
            B.store "a" wr_idx (B.v "x");
            B.store "o" (B.v "i") (B.v "x") ] ]
  in
  A.Loop_nest.find_by_outer_index p "i"

let outer_dist nest arr =
  let pairs = A.Dependence.all_pairs nest in
  List.filter_map
    (fun ((x : A.Dependence.access), _, d) ->
      if x.A.Dependence.acc_array = arr then Some d else None)
    pairs

let test_dependence_same_element () =
  (* write a[i], read a[i]: distance 0 only *)
  let nest = nest_of_accesses ~m:8 ~n:3 ~wr_idx:(B.v "i") ~rd_idx:(B.v "i") in
  let ds = outer_dist nest "a" in
  Alcotest.(check bool) "all distance 0" true
    (List.for_all
       (fun d -> d = A.Dependence.Exact 0 || d = A.Dependence.No_dependence)
       ds);
  Alcotest.(check bool) "squash legal" true (A.Legality.transformable nest ~ds:4)

let test_dependence_distance_one () =
  (* write a[i], read a[i-1]: outer distance 1 -> case 3 at ds>=2 *)
  let nest =
    nest_of_accesses ~m:8 ~n:3 ~wr_idx:(B.v "i") ~rd_idx:B.(v "i" - int 1)
  in
  let ds = outer_dist nest "a" in
  Alcotest.(check bool) "has distance 1" true
    (List.exists (fun d -> d = A.Dependence.Exact 1) ds);
  Alcotest.(check bool) "squash illegal at 2" false
    (A.Legality.transformable nest ~ds:2)

let test_dependence_far_apart () =
  (* write a[i], read a[i-16]: case 2 for ds <= 16 *)
  let nest =
    nest_of_accesses ~m:8 ~n:3 ~wr_idx:(B.v "i") ~rd_idx:B.(v "i" - int 16)
  in
  Alcotest.(check bool) "squash legal at 4" true
    (A.Legality.transformable nest ~ds:4);
  Alcotest.(check bool) "squash legal at 8" true
    (A.Legality.transformable nest ~ds:8)

let test_dependence_strided () =
  (* write a[2i], read a[2i+1]: never conflict *)
  let nest =
    nest_of_accesses ~m:8 ~n:3 ~wr_idx:B.(v "i" * int 2)
      ~rd_idx:B.(v "i" * int 2 + int 1)
  in
  let ds = outer_dist nest "a" in
  (* the store's self-pair is Exact 0 (case 1); everything else must be
     provably independent *)
  Alcotest.(check bool) "independent" true
    (List.for_all
       (fun d -> d = A.Dependence.No_dependence || d = A.Dependence.Exact 0)
       ds);
  Alcotest.(check bool) "no cross-iteration conflicts" true
    (A.Legality.transformable nest ~ds:8)

let test_affine_extraction () =
  let classify = function
    | "i" -> A.Dependence.Index 0
    | "j" -> A.Dependence.Index 1
    | "b" -> A.Dependence.Subst B.(v "i" * int 8)
    | "x" -> A.Dependence.Variant
    | v -> A.Dependence.Sym v
  in
  let form e =
    Option.map
      (fun (f : A.Dependence.form) ->
        (Array.to_list f.A.Dependence.coeffs, f.A.Dependence.const,
         f.A.Dependence.syms))
      (A.Dependence.form_of ~levels:2 ~classify e)
  in
  let check msg expected e =
    Alcotest.(check (option (triple (list int) int (list (pair string int)))))
      msg expected (form e)
  in
  check "i*4 + j + 3" (Some ([ 4; 1 ], 3, [])) B.(v "i" * int 4 + v "j" + int 3);
  check "substituted b, shifted j, negated n"
    (Some ([ 8; 4 ], 0, [ ("n", -1) ]))
    B.(v "b" + shl (v "j") (int 2) - v "n");
  check "symbols cancel" (Some ([ 0; 1 ], 0, [])) B.(v "s" + v "j" - v "s");
  check "iteration-variant" None B.(v "x" + int 1);
  check "not affine" None B.(v "i" * v "j")

(* --- legality shape checks --- *)

let test_legality_requires_straight_line () =
  let p =
    B.program "iffy"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 4; B.output "o" 4 ]
      [ B.for_ "i" ~hi:(B.int 4)
          [ B.("x" <-- load "a" (v "i"));
            B.for_ "j" ~hi:(B.int 2)
              [ B.if_ B.(v "x" > int 0) [ B.("x" <-- v "x" - int 1) ] [] ];
            B.store "o" (B.v "i") (B.v "x") ] ]
  in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  let v = A.Legality.check nest ~ds:2 in
  Alcotest.(check bool) "illegal" false v.A.Legality.ok;
  Alcotest.(check bool) "right reason" true
    (List.mem A.Legality.Inner_not_straight_line v.A.Legality.violations)

let test_legality_variant_bounds () =
  let p =
    B.program "varbound"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.input "a" 4; B.output "o" 4 ]
      [ B.for_ "i" ~hi:(B.int 4)
          [ B.("x" <-- load "a" (v "i"));
            B.for_ "j" ~hi:(B.v "i") [ B.("x" <-- v "x" + int 1) ];
            B.store "o" (B.v "i") (B.v "x") ] ]
  in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  let v = A.Legality.check nest ~ds:2 in
  Alcotest.(check bool) "illegal" false v.A.Legality.ok

let test_legality_peel_count () =
  let p = Helpers.fg_loop ~m:10 ~n:2 in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  let v = A.Legality.check nest ~ds:4 in
  Alcotest.(check bool) "legal" true v.A.Legality.ok;
  Alcotest.(check int) "peel 2" 2 v.A.Legality.needs_peel

(* Two dependent pairs of [a] share the distance [-3, 3]: the verdict
   names it once. *)
let test_legality_distinct_array_violations () =
  let p =
    Parser.program_of_string
      "program dup { out int a[64]; int i; int j; for (i = 0; i < 4; i++) { \
       for (j = 0; j < 8; j++) { a[i + j] = a[i + j + 1] + 1; } } }"
  in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  let v = A.Legality.check nest ~ds:2 in
  Alcotest.(check string) "one violation per distinct pair"
    "illegal: array a carries an outer dependence (distance in [-3, 3])"
    (Fmt.str "%a" A.Legality.pp_verdict v)

(* --- SSA --- *)

let test_ssa_single_assignment () =
  let ssa = A.Ssa.convert fg_body in
  let defs = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match s with
      | Stmt.Assign (x, _) ->
        Alcotest.(check bool) ("unique def " ^ x) false (Hashtbl.mem defs x);
        Hashtbl.add defs x ()
      | _ -> ())
    ssa.A.Ssa.ssa_body;
  (* live-in of a is version 0, live-out is a later version *)
  let live_in_a = A.Ssa.Smap.find "a" ssa.A.Ssa.live_in in
  let live_out_a = A.Ssa.Smap.find "a" ssa.A.Ssa.live_out in
  Alcotest.(check string) "live in" "a#0" live_in_a;
  Alcotest.(check bool) "live out differs" false
    (String.equal live_in_a live_out_a)

let test_ssa_roundtrip () =
  let ssa = A.Ssa.convert fg_body in
  let back = A.Ssa.deconvert ssa in
  Alcotest.(check bool) "deconvert = original" true
    (Stmt.equal_list fg_body back)

let test_ssa_qcheck_roundtrip =
  (* random straight-line blocks: SSA then base-name stripping is the
     identity, and evaluation is preserved through SSA *)
  let gen_block st =
    let vars = [| "p"; "q"; "r" |] in
    List.init
      (QCheck.Gen.int_range 1 8 st)
      (fun _ ->
        let dst = vars.(QCheck.Gen.int_range 0 2 st) in
        let a = Expr.Var vars.(QCheck.Gen.int_range 0 2 st) in
        let b = Expr.Var vars.(QCheck.Gen.int_range 0 2 st) in
        Stmt.Assign (dst, Expr.Binop (Types.Add, a, b)))
  in
  let arb =
    QCheck.make gen_block ~print:(fun b ->
        String.concat "\n" (List.map Pp.stmt_to_string b))
  in
  QCheck.Test.make ~name:"ssa roundtrip (random blocks)" ~count:100 arb
    (fun block ->
      let ssa = A.Ssa.convert block in
      Stmt.equal_list block (A.Ssa.deconvert ssa))

let base_suite =
  [ Alcotest.test_case "upward exposed" `Quick test_upward_exposed;
    Alcotest.test_case "for summary hides index" `Quick
      test_for_summary_hides_index;
    Alcotest.test_case "used outside nest" `Quick test_used_outside_nest;
    Alcotest.test_case "find nest" `Quick test_find_nest;
    Alcotest.test_case "nest roundtrip" `Quick test_nest_roundtrip;
    Alcotest.test_case "triple nest" `Quick test_triple_nest_found;
    Alcotest.test_case "induction rewrite" `Quick
      test_induction_found_and_rewritten;
    Alcotest.test_case "induction enables squash" `Quick
      test_induction_enables_squash;
    Alcotest.test_case "dependence same element" `Quick
      test_dependence_same_element;
    Alcotest.test_case "dependence distance 1" `Quick
      test_dependence_distance_one;
    Alcotest.test_case "dependence far apart" `Quick test_dependence_far_apart;
    Alcotest.test_case "dependence strided" `Quick test_dependence_strided;
    Alcotest.test_case "affine extraction" `Quick test_affine_extraction;
    Alcotest.test_case "legality straight line" `Quick
      test_legality_requires_straight_line;
    Alcotest.test_case "legality variant bounds" `Quick
      test_legality_variant_bounds;
    Alcotest.test_case "legality peel count" `Quick test_legality_peel_count;
    Alcotest.test_case "ssa single assignment" `Quick
      test_ssa_single_assignment;
    Alcotest.test_case "ssa roundtrip" `Quick test_ssa_roundtrip;
    QCheck_alcotest.to_alcotest test_ssa_qcheck_roundtrip ]

(* --- more dependence-solver edge cases --- *)

let test_dependence_outer_bounded () =
  (* i*n + j style accesses: without bounding di by the outer range the
     GCD test reports spurious far-apart conflicts *)
  let m = 4 and n = 6 in
  let p =
    B.program "rowmajor"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.input "a" (m * n); B.output "o" (m * n) ]
      [ B.for_ "i" ~hi:(B.int m)
          [ B.("x" <-- int 0);
            B.for_ "j" ~hi:(B.int n)
              [ B.("x" <-- v "x" + load "a" ((v "i" * int n) + v "j"));
                B.store "o" B.((v "i" * int n) + v "j") (B.v "x") ] ] ]
  in
  (* a 1-deep-in-2-deep shape: pre/post empty; the store self-pair has
     conflicts only at di = 0 once di is bounded by the outer range *)
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  List.iter
    (fun (x, _, d) ->
      if x.A.Dependence.acc_array = "o" then
        match d with
        | A.Dependence.Exact 0 | A.Dependence.No_dependence -> ()
        | d ->
          Alcotest.failf "unexpected distance %a"
            A.Dependence.pp_outer_distance d)
    (A.Dependence.all_pairs nest)

let test_dependence_symbolic_bases () =
  (* base + i with the same symbolic base on both sides: exact distance;
     with different bases: unknown (conservative) *)
  let mk rd =
    let p =
      B.program "sym"
        ~params:[ ("base", Types.Tint); ("other", Types.Tint) ]
        ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
        ~arrays:[ B.local_array "a" 64; B.output "o" 64 ]
        [ B.for_ "i" ~hi:(B.int 8)
            [ B.("x" <-- load "a" rd);
              B.for_ "j" ~hi:(B.int 2) [ B.("x" <-- v "x" + int 1) ];
              B.store "a" B.(v "base" + v "i") (B.v "x");
              B.store "o" (B.v "i") (B.v "x") ] ]
    in
    A.Loop_nest.find_by_outer_index p "i"
  in
  let dist_of nest =
    List.find_map
      (fun (x, y, d) ->
        if
          x.A.Dependence.acc_array = "a"
          && (x.A.Dependence.acc_is_write <> y.A.Dependence.acc_is_write)
        then Some d
        else None)
      (A.Dependence.all_pairs nest)
  in
  (match dist_of (mk B.(v "base" + v "i" - int 2)) with
  | Some (A.Dependence.Exact d) ->
    Alcotest.(check int) "same base distance" 2 (abs d)
  | d ->
    Alcotest.failf "expected Exact, got %a"
      Fmt.(option A.Dependence.pp_outer_distance)
      d);
  match dist_of (mk B.(v "other" + v "i" - int 2)) with
  | Some A.Dependence.Any -> ()
  | d ->
    Alcotest.failf "expected Any for mixed bases, got %a"
      Fmt.(option A.Dependence.pp_outer_distance)
      d

let test_legality_within_case2 () =
  (* distance interval entirely outside the window: legal (case 2) *)
  let p =
    B.program "far"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.local_array "a" 128; B.output "o" 64 ]
      [ B.for_ "i" ~hi:(B.int 16)
          [ B.("x" <-- load "a" (v "i"));
            B.for_ "j" ~hi:(B.int 2) [ B.("x" <-- v "x" + v "j") ];
            B.store "a" B.(v "i" + int 40) (B.v "x");
            B.store "o" (B.v "i") (B.v "x") ] ]
  in
  let nest = A.Loop_nest.find_by_outer_index p "i" in
  Alcotest.(check bool) "legal at 8 (distance 40 > 7)" true
    (A.Legality.transformable nest ~ds:8);
  (* at DS = 41 the window reaches the dependence - but peeling already
     caps DS at the trip count; use a wider loop to see the rejection *)
  let p2 =
    B.program "near"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ B.local_array "a" 128; B.output "o" 64 ]
      [ B.for_ "i" ~hi:(B.int 64)
          [ B.("x" <-- load "a" (v "i"));
            B.for_ "j" ~hi:(B.int 2) [ B.("x" <-- v "x" + v "j") ];
            B.store "a" B.(v "i" + int 4) (B.v "x");
            B.store "o" (B.v "i") (B.v "x") ] ]
  in
  let nest2 = A.Loop_nest.find_by_outer_index p2 "i" in
  Alcotest.(check bool) "legal at 4 (distance 4 outside [-3,3])" true
    (A.Legality.transformable nest2 ~ds:4);
  Alcotest.(check bool) "illegal at 8 (distance 4 inside [-7,7])" false
    (A.Legality.transformable nest2 ~ds:8)

(* --- characterization: one subscript form for every consumer --- *)

(* Each row is a 2-level nest over [a] (params n and s, an optional
   pre-header definition b = i*8) whose inner body makes the listed
   accesses in order: a load is [x = x + a[e]], a store [a[e] = x].
   The row pins the pair's outer distances, the nest's distance vectors
   and the memory edges of the inner body's DFG.  The DFG treats a
   symbol whose coefficient is not 1 as unknown: [s + s + j] is as
   unknown as [2*s + j], and the cancelled [s] of [(s + j) - s] leaves
   a plain [j]. *)
let characterization_rows =
  let l e = (false, e) and s e = (true, e) in
  B.
    [ ("j vs j+1", false, [ l (v "j" + int 1); s (v "j") ]);
      ("2*j vs 2*j+1", false,
        [ l ((int 2 * v "j") + int 1); s (int 2 * v "j") ]);
      ("j<<1", false, [ l (shl (v "j") (int 1) + int 2); s (shl (v "j") (int 1)) ]);
      ("n - j", false, [ l (v "n" - v "j"); s (v "n" - v "j" + int 1) ]);
      ("store self-pair i*64 + j", false, [ s ((v "i" * int 64) + v "j") ]);
      ("pre-header base b = i*8", true,
        [ l (v "b" + v "j" + int 1); s (v "b" + v "j") ]);
      ("(1,-1) pair", false,
        [ l (((v "i" - int 1) * int 8) + v "j" + int 1);
          s ((v "i" * int 8) + v "j") ]);
      ("2*s + j", false,
        [ l ((int 2 * v "s") + v "j" + int 1); s ((int 2 * v "s") + v "j") ]);
      ("s + s + j", false,
        [ l (v "s" + v "s" + v "j" + int 1); s (v "s" + v "s" + v "j") ]);
      ("(s + j) - s", false, [ l (v "s" + v "j" - v "s"); s (v "j" + int 1) ])
    ]

let characterize (name, pre_base, accs) =
  let body =
    List.map
      (fun (w, e) ->
        if w then B.store "a" e (B.v "x") else B.("x" <-- v "x" + load "a" e))
      accs
  in
  let p =
    B.program "charz"
      ~params:[ ("n", Types.Tint); ("s", Types.Tint) ]
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint);
          ("b", Types.Tint) ]
      ~arrays:[ B.local_array "a" 4096 ]
      [ B.for_ "i" ~lo:(B.int 1) ~hi:(B.int 5)
          ((if pre_base then [ B.("b" <-- v "i" * int 8) ] else [])
          @ [ B.for_ "j" ~hi:(B.int 8) body ]) ]
  in
  let acc (x : A.Dependence.access) =
    (if x.A.Dependence.acc_is_write then "w[" else "r[")
    ^ Pp.expr_to_string x.A.Dependence.acc_index
    ^ "]"
  in
  let pair =
    List.map
      (fun (x, y, d) ->
        Fmt.str "%s~%s %a" (acc x) (acc y) A.Dependence.pp_outer_distance d)
      (A.Dependence.all_pairs (A.Loop_nest.find_by_outer_index p "i"))
  in
  let nest = Option.get (A.Loop_nest.find_nest_opt p "i") in
  let vectors =
    List.map
      (fun (x, y) ->
        Fmt.str "%s~%s %s" (acc x) (acc y)
          (match A.Dependence.distance_vectors nest x y with
          | None -> "unknown"
          | Some vs ->
            "{"
            ^ String.concat " "
                (List.map
                   (fun v ->
                     "("
                     ^ String.concat ","
                         (List.map string_of_int (Array.to_list v))
                     ^ ")")
                   vs)
            ^ "}"))
      (A.Dependence.dependent_pairs (A.Dependence.nest_accesses nest))
  in
  let g, _ = Uas_dfg.Build.build ~inner_index:"j" body in
  let mem id =
    match (Uas_dfg.Graph.node g id).Uas_dfg.Graph.kind with
    | Opinfo.Op_load | Opinfo.Op_store -> true
    | _ -> false
  in
  let edges =
    List.filter_map
      (fun (e : Uas_dfg.Graph.edge) ->
        if mem e.Uas_dfg.Graph.e_src && mem e.e_dst then
          Some (Fmt.str "%d->%d@%d" e.e_src e.e_dst e.e_distance)
        else None)
      g.Uas_dfg.Graph.edges
    |> List.sort_uniq compare
  in
  Fmt.str "%s | pair: %s | nest: %s | dfg: %s" name
    (String.concat "; " pair) (String.concat "; " vectors)
    (String.concat " " edges)

let characterization_expected =
  [ "j vs j+1 | pair: r[j + 1]~w[j] unknown; w[j]~w[j] unknown | nest: r[j + 1]~w[j] {(0,1) (1,-1) (1,1) (2,-1) (2,1) (3,-1) (3,1)}; w[j]~w[j] {(1,0) (2,0) (3,0)} | dfg: 4->6@1";
    "2*j vs 2*j+1 | pair: r[2 * j + 1]~w[2 * j] independent; w[2 * j]~w[2 * j] unknown | nest: r[2 * j + 1]~w[2 * j] {}; w[2 * j]~w[2 * j] {(1,0) (2,0) (3,0)} | dfg: ";
    "j<<1 | pair: r[(j << 1) + 2]~w[j << 1] unknown; w[j << 1]~w[j << 1] unknown | nest: r[(j << 1) + 2]~w[j << 1] {(0,1) (1,-1) (1,1) (2,-1) (2,1) (3,-1) (3,1)}; w[j << 1]~w[j << 1] {(1,0) (2,0) (3,0)} | dfg: 6->10@1";
    "n - j | pair: r[n - j]~w[n - j + 1] unknown; w[n - j + 1]~w[n - j + 1] unknown | nest: r[n - j]~w[n - j + 1] {(0,1) (1,-1) (1,1) (2,-1) (2,1) (3,-1) (3,1)}; w[n - j + 1]~w[n - j + 1] {(1,0) (2,0) (3,0)} | dfg: 4->9@1";
    "store self-pair i*64 + j | pair: w[i * 64 + j]~w[i * 64 + j] distance 0 | nest: w[i * 64 + j]~w[i * 64 + j] {} | dfg: 6->6@1";
    "pre-header base b = i*8 | pair: r[b + j + 1]~w[b + j] distance in [-1, 0]; w[b + j]~w[b + j] distance 0 | nest: r[b + j + 1]~w[b + j] unknown; w[b + j]~w[b + j] unknown | dfg: 6->9@1";
    "(1,-1) pair | pair: r[(i - 1) * 8 + j + 1]~w[i * 8 + j] distance in [0, 1]; w[i * 8 + j]~w[i * 8 + j] distance 0 | nest: r[(i - 1) * 8 + j + 1]~w[i * 8 + j] {(0,7) (1,-1)}; w[i * 8 + j]~w[i * 8 + j] {} | dfg: 10->15@0 10->15@1 15->10@1 15->15@1";
    "2*s + j | pair: r[2 * s + j + 1]~w[2 * s + j] unknown; w[2 * s + j]~w[2 * s + j] unknown | nest: r[2 * s + j + 1]~w[2 * s + j] {(0,1) (1,-1) (1,1) (2,-1) (2,1) (3,-1) (3,1)}; w[2 * s + j]~w[2 * s + j] {(1,0) (2,0) (3,0)} | dfg: 13->13@1 13->8@1 8->13@0 8->13@1";
    "s + s + j | pair: r[s + s + j + 1]~w[s + s + j] unknown; w[s + s + j]~w[s + s + j] unknown | nest: r[s + s + j + 1]~w[s + s + j] {(0,1) (1,-1) (1,1) (2,-1) (2,1) (3,-1) (3,1)}; w[s + s + j]~w[s + s + j] {(1,0) (2,0) (3,0)} | dfg: 11->11@1 11->7@1 7->11@0 7->11@1";
    "(s + j) - s | pair: r[s + j - s]~w[j + 1] unknown; w[j + 1]~w[j + 1] unknown | nest: r[s + j - s]~w[j + 1] {(0,1) (1,-1) (1,1) (2,-1) (2,1) (3,-1) (3,1)}; w[j + 1]~w[j + 1] {(1,0) (2,0) (3,0)} | dfg: 9->5@1" ]

let test_subscript_characterization () =
  let got = List.map characterize characterization_rows in
  Alcotest.(check (list string)) "rows" characterization_expected got

(* The loop [solve_distance] replaced, kept as its oracle: every inner
   offset t in [-(n-1), n-1] is tried. *)
let solve_distance_by_loop ~inner_trips ~inner_step ~outer_trips a b delta =
  let module D = A.Dependence in
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  let di_possible di =
    match outer_trips with None -> true | Some m -> abs di <= m - 1
  in
  if a = 0 && b = 0 then if delta = 0 then D.Exact 0 else D.No_dependence
  else if b = 0 then
    if delta mod a = 0 && di_possible (delta / a) then D.Exact (delta / a)
    else D.No_dependence
  else if a = 0 then
    if delta mod b <> 0 || delta / b mod inner_step <> 0 then D.No_dependence
    else (
      match inner_trips with
      | Some n when abs (delta / b / inner_step) > n - 1 -> D.No_dependence
      | Some _ | None -> D.Any)
  else if delta mod gcd a b <> 0 then D.No_dependence
  else
    match inner_trips with
    | None -> D.Any
    | Some n ->
      let candidates = ref [] in
      for t = -(n - 1) to n - 1 do
        let num = delta - (b * t * inner_step) in
        if num mod a = 0 && di_possible (num / a) then
          candidates := (num / a) :: !candidates
      done;
      (match !candidates with
      | [] -> D.No_dependence
      | ds ->
        let lo = List.fold_left min max_int ds in
        let hi = List.fold_left max min_int ds in
        if lo = hi then D.Exact lo else D.Within (lo, hi))

let test_solve_distance_closed_form =
  let open QCheck in
  let trips = Gen.(opt (int_range 0 12)) in
  let gen =
    Gen.(
      map
        (fun ((a, b, delta), (inner_trips, inner_step, outer_trips)) ->
          (a, b, delta, inner_trips, inner_step, outer_trips))
        (pair
           (triple (int_range (-8) 8) (int_range (-8) 8) (int_range (-60) 60))
           (triple trips (oneofl [ -3; -2; -1; 1; 2; 3 ]) trips)))
  in
  let print (a, b, delta, n, s, m) =
    Fmt.str "a=%d b=%d delta=%d inner_trips=%a inner_step=%d outer_trips=%a"
      a b delta Fmt.(option int) n s Fmt.(option int) m
  in
  Test.make ~name:"solve_distance closed form = per-offset loop" ~count:3000
    (make gen ~print)
    (fun (a, b, delta, inner_trips, inner_step, outer_trips) ->
      A.Dependence.solve_distance ~inner_trips ~inner_step ~outer_trips a b
        delta
      = solve_distance_by_loop ~inner_trips ~inner_step ~outer_trips a b delta)

let extra_suite =
  [ Alcotest.test_case "dependence outer-bounded" `Quick
      test_dependence_outer_bounded;
    Alcotest.test_case "dependence symbolic bases" `Quick
      test_dependence_symbolic_bases;
    Alcotest.test_case "legality case 2 windows" `Quick
      test_legality_within_case2;
    Alcotest.test_case "subscript characterization" `Quick
      test_subscript_characterization;
    QCheck_alcotest.to_alcotest test_solve_distance_closed_form;
    Alcotest.test_case "legality distinct array violations" `Quick
      test_legality_distinct_array_violations ]

let suite = base_suite @ extra_suite
