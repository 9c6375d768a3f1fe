(* The pass pipeline layer: compilation-unit memoization and
   invalidation, structured diagnostics for illegal factors, the
   [--dump-after] hook contract, and the [pass.<name>] span naming the
   runner guarantees. *)

module S = Uas_bench_suite
module N = Uas_core.Nimble
module Cu = Uas_pass.Cu
module Pass = Uas_pass.Pass
module Diag = Uas_pass.Diag
module Instrument = Uas_runtime.Instrument

let simple () = S.Simple.fg_loop ~m:8 ~n:8

(* a nest whose inner recurrence scalar is carried across OUTER
   iterations too: squash and jam are both illegal at every factor *)
let outer_carried () =
  let open Uas_ir.Builder in
  program "acc"
    ~locals:
      [ ("i", Uas_ir.Types.Tint); ("j", Uas_ir.Types.Tint);
        ("s", Uas_ir.Types.Tint) ]
    ~arrays:[ input "a" 8; output "o" 8 ]
    [ ("s" <-- int 0);
      for_ "i" ~hi:(int 8)
        [ for_ "j" ~hi:(int 4) [ "s" <-- v "s" + load "a" (v "i") ];
          store "o" (v "i") (v "s") ] ]

(* --- compilation-unit cache --- *)

let test_cu_memoization () =
  let cu = Cu.make (simple ()) ~outer_index:"i" ~inner_index:"j" in
  Alcotest.(check (pair int int)) "nothing looked up initially" (0, 0)
    (Cu.hits cu, Cu.misses cu);
  let n1 = Cu.nest cu in
  Alcotest.(check int) "first lookup misses" 1 (Cu.misses cu);
  Alcotest.(check int) "first lookup does not hit" 0 (Cu.hits cu);
  let n2 = Cu.nest cu in
  Alcotest.(check int) "second lookup hits" 1 (Cu.hits cu);
  Alcotest.(check int) "second lookup does not recompute" 1 (Cu.misses cu);
  Alcotest.(check bool) "same nest" true (n1 == n2);
  let c1 = Cu.compiled cu in
  let c2 = Cu.compiled cu in
  Alcotest.(check bool) "same compiled program" true (c1 == c2);
  Alcotest.(check (pair int int)) "compiled once, then served" (2, 2)
    (Cu.hits cu, Cu.misses cu)

let test_cu_invalidation () =
  let cu = Cu.make (simple ()) ~outer_index:"i" ~inner_index:"j" in
  let n = Cu.nest cu in
  let c = Cu.compiled cu in
  let cu' = Cu.with_program cu (Cu.program cu) in
  Alcotest.(check (pair int int)) "counters carried over" (0, 2)
    (Cu.hits cu', Cu.misses cu');
  Alcotest.(check bool) "nest dropped" false (Cu.nest cu' == n);
  Alcotest.(check bool) "compiled program dropped" false (Cu.compiled cu' == c);
  Alcotest.(check (pair int int)) "both recomputed" (0, 4)
    (Cu.hits cu', Cu.misses cu');
  Alcotest.(check bool) "the original unit keeps its nest" true
    (Cu.nest cu == n)

let test_cu_artifacts_always_invalidated () =
  let cu = Cu.make (simple ()) ~outer_index:"i" ~inner_index:"j" in
  let cu =
    match Pass.run cu (N.estimate_passes N.Pipelined) with
    | Ok cu -> cu
    | Error d -> Alcotest.failf "estimate pipeline failed: %a" Diag.pp d
  in
  Alcotest.(check bool) "dfg artifact set" true (Cu.dfg cu <> None);
  Alcotest.(check bool) "report artifact set" true (Cu.report cu <> None);
  let cu' = Cu.with_program cu (Cu.program cu) in
  Alcotest.(check bool) "dfg dropped on program change" true
    (Cu.dfg cu' = None);
  Alcotest.(check bool) "schedule dropped on program change" true
    (Cu.schedule cu' = None);
  Alcotest.(check bool) "report dropped on program change" true
    (Cu.report cu' = None)

(* --- diagnostics --- *)

let test_illegal_squash_diag () =
  match
    Helpers.build (outer_carried ()) ~outer_index:"i"
      ~inner_index:"j" (N.Squashed 4)
  with
  | Ok _ -> Alcotest.fail "outer-carried scalar must not squash"
  | Error d ->
    Alcotest.(check string) "pass" "squash" d.Diag.d_pass;
    Alcotest.(check (option string)) "loop" (Some "i")
      d.Diag.d_loop;
    (* the rendered form carries severity, pass and location *)
    let s = Fmt.str "%a" Diag.pp d in
    Alcotest.(check bool) "rendered as an error" true
      (String.starts_with ~prefix:"error[" s);
    Alcotest.(check bool) "rendered mentions pass" true
      (Helpers.contains ~sub:"[squash]" s);
    Alcotest.(check bool) "rendered mentions loop" true
      (Helpers.contains ~sub:"loop i" s)

let test_illegal_jam_diag () =
  match
    Helpers.build (outer_carried ()) ~outer_index:"i"
      ~inner_index:"j" (N.Jammed 2)
  with
  | Ok _ -> Alcotest.fail "outer-carried scalar must not jam"
  | Error d ->
    Alcotest.(check string) "pass" "jam" d.Diag.d_pass;
    Alcotest.(check (option string)) "loop" (Some "i")
      d.Diag.d_loop;
    Alcotest.(check bool) "message mentions the factor" true
      (Helpers.contains ~sub:"factor 2" d.Diag.d_message);
    Alcotest.(check bool) "rendered as an error" true
      (String.starts_with ~prefix:"error[jam]" (Diag.to_string d))

let test_unknown_nest_diag () =
  match
    Helpers.build (simple ()) ~outer_index:"nope" ~inner_index:"j"
      (N.Squashed 2)
  with
  | Ok _ -> Alcotest.fail "unknown outer index must fail"
  | Error d ->
    Alcotest.(check string) "pass" "loop-nest" d.Diag.d_pass;
    Alcotest.(check bool) "message names the index" true
      (Helpers.contains ~sub:"nope" d.Diag.d_message)

(* --- dump-after hook --- *)

let test_dump_after_squash_golden () =
  (* the unit the hook observes after the squash pass is exactly the
     program a direct Squash.apply produces *)
  let p = simple () in
  let captured = ref None in
  let after ~pass cu =
    if pass = "squash" then captured := Some (Cu.program cu)
  in
  (match
     Helpers.build ~after p ~outer_index:"i" ~inner_index:"j"
       (N.Squashed 4)
   with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "squash(4) on simple failed: %a" Diag.pp d);
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let direct = (Helpers.squash p nest ~ds:4).Uas_transform.Squash.program in
  match !captured with
  | None -> Alcotest.fail "hook never saw the squash pass"
  | Some dumped ->
    Alcotest.(check string) "post-squash IR matches direct transform"
      (Fmt.str "%a" Uas_ir.Pp.pp_program direct)
      (Fmt.str "%a" Uas_ir.Pp.pp_program dumped)

let test_dump_after_dfg_is_dot () =
  let seen_dot = ref None in
  let after ~pass cu =
    if pass = "dfg-build" then
      match Cu.dfg cu with
      | Some d ->
        seen_dot := Some (Uas_dfg.Dot.to_dot ~name:pass d.Uas_dfg.Build.d_graph)
      | None -> ()
  in
  (match
     N.run_version_cu ~after (simple ()) ~outer_index:"i" ~inner_index:"j"
       N.Pipelined
   with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "pipelined on simple skipped: %a" Diag.pp d);
  match !seen_dot with
  | None -> Alcotest.fail "hook never saw a DFG artifact"
  | Some dot ->
    Alcotest.(check bool) "DOT output" true
      (Helpers.contains ~sub:"digraph" dot)

let test_hook_sees_every_pass () =
  let order = ref [] in
  let after ~pass _cu = order := pass :: !order in
  (match
     N.run_version_cu ~after (simple ()) ~outer_index:"i" ~inner_index:"j"
       (N.Combined (2, 2))
   with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "combined skipped: %a" Diag.pp d);
  Alcotest.(check (list string))
    "pass order of the combined pipeline"
    [ "loop-nest"; "jam"; "squash"; "dfg-build"; "schedule"; "estimate" ]
    (List.rev !order)

(* --- instrumentation --- *)

let test_runner_spans () =
  let trace = Instrument.create () in
  (match
     N.run_version_cu ~ctx:(Helpers.ctx ~trace ()) (simple ())
       ~outer_index:"i" ~inner_index:"j" (N.Squashed 2)
   with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "squash(2) skipped: %a" Diag.pp d);
  let spans = List.map fst (Instrument.spans trace) in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " span recorded") true (List.mem s spans))
    [ "pass.loop-nest"; "pass.squash"; "pass.dfg-build"; "pass.schedule";
      "pass.estimate" ];
  let counters = Instrument.counters trace in
  Alcotest.(check bool) "nest cache counters recorded" true
    (List.mem_assoc "cu.nest-miss" counters)

let suite =
  [ Alcotest.test_case "cu memoization" `Quick test_cu_memoization;
    Alcotest.test_case "cu invalidation" `Quick test_cu_invalidation;
    Alcotest.test_case "cu artifacts invalidated" `Quick
      test_cu_artifacts_always_invalidated;
    Alcotest.test_case "illegal squash diagnostic" `Quick
      test_illegal_squash_diag;
    Alcotest.test_case "illegal jam diagnostic" `Quick test_illegal_jam_diag;
    Alcotest.test_case "unknown nest diagnostic" `Quick
      test_unknown_nest_diag;
    Alcotest.test_case "dump-after squash golden" `Quick
      test_dump_after_squash_golden;
    Alcotest.test_case "dump-after dfg is DOT" `Quick
      test_dump_after_dfg_is_dot;
    Alcotest.test_case "hook sees every pass" `Quick
      test_hook_sees_every_pass;
    Alcotest.test_case "runner spans" `Quick test_runner_spans ]
