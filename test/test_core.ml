(* The driver layer: version construction (including the §2 combined
   jam+squash), experiment tables, figure series, and benchmark
   registry plumbing. *)

module S = Uas_bench_suite
module N = Uas_core.Nimble
module E = Uas_core.Experiments
module Estimate = Uas_hw.Estimate

let bench = lazy (S.Registry.skipjack_hw ~m:16 ())

let row =
  lazy
    (E.run_benchmark ~verify:false (Lazy.force bench))

let test_version_names () =
  List.iter
    (fun (v, s) -> Alcotest.(check string) s s (N.version_name v))
    [ (N.Original, "original");
      (N.Pipelined, "pipelined");
      (N.Squashed 8, "squash(8)");
      (N.Jammed 4, "jam(4)");
      (N.Combined (2, 4), "jam(2)+squash(4)") ]

let test_combined_version_verified () =
  let b = Lazy.force bench in
  List.iter
    (fun (j, s) ->
      match
        Helpers.build b.S.Registry.b_program ~outer_index:"i"
          ~inner_index:"j" (N.Combined (j, s))
      with
      | Error d ->
        Alcotest.failf "combined jam(%d)+squash(%d): %s" j s
          (Uas_pass.Diag.to_string d)
      | Ok q -> (
        match S.Registry.check_against_reference b q with
        | Ok () -> ()
        | Error m -> Alcotest.failf "combined jam(%d)+squash(%d): %s" j s m))
    [ (2, 2); (2, 4); (4, 2) ]

let test_combined_beats_jam_alone () =
  (* §2: jam(2)+squash(2) reaches ~4x speedup for ~2x operators *)
  let b = Lazy.force bench in
  let est = Helpers.report b in
  let base = est N.Original in
  let jam2 = est (N.Jammed 2) in
  let combo = est (N.Combined (2, 2)) in
  Alcotest.(check bool) "combined ops close to jam ops" true
    (combo.Estimate.r_operators <= jam2.Estimate.r_operators + 1);
  let speedup r =
    float_of_int base.Estimate.r_total_cycles
    /. float_of_int r.Estimate.r_total_cycles
  in
  Alcotest.(check bool) "combined faster than jam(2)" true
    (speedup combo > speedup jam2)

let test_figures_consistent_with_table () =
  let r = Lazy.force row in
  let norm = E.normalize r in
  let fig = List.assoc "Skipjack-hw" (E.figure_6_1 [ r ]) in
  List.iter2
    (fun n (v, x) ->
      Alcotest.(check bool) "same version order" true (n.E.n_version = v);
      Alcotest.(check (float 1e-9)) "speedup matches" n.E.n_speedup x)
    norm fig;
  let eff = List.assoc "Skipjack-hw" (E.figure_6_3 [ r ]) in
  List.iter2
    (fun n (_, x) ->
      Alcotest.(check (float 1e-9)) "efficiency = speedup/area"
        (n.E.n_speedup /. n.E.n_area) x)
    norm eff

let test_registry_find () =
  Alcotest.(check bool) "finds by name" true
    (S.Registry.find "skipjack-MEM" <> None);
  Alcotest.(check bool) "unknown is None" true (S.Registry.find "nope" = None);
  Alcotest.(check int) "five benchmarks" 5 (List.length (S.Registry.all ()))

let test_sweep_reports_illegal () =
  (* a nest with an outer-carried scalar builds only the untransformed
     versions; every rejected version carries a diagnostic naming the
     rejecting pass and the loop *)
  let p =
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
  in
  let row =
    E.run_benchmark ~verify:false
      (Helpers.benchmark p ~outer_index:"i" ~inner_index:"j")
  in
  let names = List.map (fun c -> N.version_name c.E.c_version) row.E.br_cells in
  Alcotest.(check (list string)) "only original and pipelined"
    [ "original"; "pipelined" ] names;
  Alcotest.(check int) "eight versions skipped" 8 (List.length row.E.br_skipped);
  List.iter
    (fun { E.s_version = v; s_diag = (d : Uas_pass.Diag.t) } ->
      Alcotest.(check bool)
        (N.version_name v ^ " diag renders as an error")
        true
        (String.starts_with ~prefix:"error["
           (Uas_pass.Diag.to_string d));
      Alcotest.(check bool)
        (N.version_name v ^ " diag names the squash or jam pass")
        true
        (List.mem d.Uas_pass.Diag.d_pass [ "squash"; "jam" ]);
      Alcotest.(check (option string))
        (N.version_name v ^ " diag points at loop i")
        (Some "i")
        d.Uas_pass.Diag.d_loop;
      Alcotest.(check bool)
        (N.version_name v ^ " diag message is non-empty")
        true
        (String.length d.Uas_pass.Diag.d_message > 0))
    row.E.br_skipped

let test_skipped_footer_rendered () =
  (* a rejected version lands in the table footer, not silently gone *)
  let b = S.Registry.skipjack_hw ~m:16 () in
  let row =
    E.run_benchmark ~verify:false
      ~versions:[ N.Original; N.Pipelined; N.Squashed 0 ]
      b
  in
  Alcotest.(check int) "two cells" 2 (List.length row.E.br_cells);
  Alcotest.(check int) "one skip" 1 (List.length row.E.br_skipped);
  let rendered = Fmt.str "%a" E.pp_table_6_2 [ row ] in
  Alcotest.(check bool) "footer names the version" true
    (Helpers.contains ~sub:"skipped: squash(0)" rendered);
  Alcotest.(check bool) "footer carries the diagnostic" true
    (Helpers.contains ~sub:"error[squash]" rendered)

(* A kernel loop whose bounds depend on the outer index builds, but
   the estimator cannot model it: that is an [estimate] diagnostic on
   the kernel loop from the quick-synthesis pipeline, not an escaping
   exception. *)
let test_dynamic_kernel_bound_diagnostic () =
  let p =
    Uas_ir.Parser.program_of_string
      {|program p {
  in int a[64];
  out int b[64];
  int i; int j; int acc;
  for (i = 0; i < 8; i++) {
    acc = 0;
    for (j = i; j < 8; j++) { acc = acc + a[i * 8 + j]; }
    b[i] = acc;
  }
}|}
  in
  match N.run_version_cu p ~outer_index:"i" ~inner_index:"j" N.Pipelined with
  | Ok _ -> Alcotest.fail "expected an estimate diagnostic"
  | Error d ->
    Alcotest.(check string) "pass" "estimate" d.Uas_pass.Diag.d_pass;
    Alcotest.(check (option string)) "loop" (Some "j")
      d.Uas_pass.Diag.d_loop;
    Alcotest.(check bool) "names the cause" true
      (Helpers.contains ~sub:"not a hardware kernel" d.Uas_pass.Diag.d_message)

let suite =
  [ Alcotest.test_case "version names" `Quick test_version_names;
    Alcotest.test_case "dynamic kernel bound: estimate diagnostic" `Quick
      test_dynamic_kernel_bound_diagnostic;
    Alcotest.test_case "combined versions verified" `Slow
      test_combined_version_verified;
    Alcotest.test_case "combined beats jam alone" `Quick
      test_combined_beats_jam_alone;
    Alcotest.test_case "figures match tables" `Quick
      test_figures_consistent_with_table;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "sweep reports illegal" `Quick
      test_sweep_reports_illegal;
    Alcotest.test_case "skipped footer rendered" `Quick
      test_skipped_footer_rendered ]
