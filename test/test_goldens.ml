(* The committed goldens under ci/goldens/ are the one source of truth
   for the rendered tables: Table 6.2, the estimate renders and the plan
   renders are recomputed here and compared byte for byte, so a drift
   in any layer — benchmarks, DFG construction, memory disambiguation,
   recurrence analysis, the II search, the cost model — fails
   [dune runtest], not only CI.

   A deliberate change re-baselines the golden file AND the
   corresponding discussion in EXPERIMENTS.md. *)

module S = Uas_bench_suite
module E = Uas_core.Experiments
module P = Uas_core.Planner
module Handler = Uas_service.Handler

let golden file =
  In_channel.with_open_bin (Filename.concat "../ci/goldens" file)
    In_channel.input_all

let check_golden file rendered =
  Alcotest.(check string) ("ci/goldens/" ^ file) (golden file) rendered

let execute work =
  match Handler.execute work with
  | Ok (rendered, _) -> rendered
  | Error m -> Alcotest.failf "execute: %s" m

(* what [bench/main.exe table-6.2] prints, its banner included *)
let test_table_6_2 () =
  check_golden "table-6.2.txt"
    (Fmt.str "@.==== Table 6.2 ====@.%a@." E.pp_table_6_2
       (E.table_6_2 ~verify:true ()))

(* what [nimblec estimate BENCH] prints ([--verify] for wavelet3) *)
let test_estimates () =
  List.iter
    (fun (bench, verify, file) ->
      check_golden file
        (execute
           (Handler.W_estimate
              { (Handler.estimate_opts bench) with e_verify = verify })))
    [ ("iir", false, "estimate-iir.txt");
      ("des-hw", false, "estimate-des-hw.txt");
      ("skipjack-hw", false, "estimate-skipjack-hw.txt");
      ("wavelet3", true, "wavelet3-estimate.txt") ]

(* what [nimblec plan BENCH] prints *)
let test_plans () =
  List.iter
    (fun (bench, file) ->
      check_golden file
        (execute
           (Handler.W_plan
              { Handler.p_bench = bench;
                p_objective = P.Ratio;
                p_validate = false;
                p_budget_s = None })))
    [ ("skipjack-mem", "plan-skipjack-mem.txt");
      ("wavelet3", "plan-wavelet3.txt") ]

(* spot checks of the structural counts that drive the area story *)
let test_golden_structure () =
  let check name ~mem ~ops (b : S.Registry.benchmark) =
    let r = Helpers.report b Uas_core.Nimble.Original in
    Alcotest.(check int) (name ^ " memory refs") mem
      r.Uas_hw.Estimate.r_mem_refs;
    Alcotest.(check int) (name ^ " operators") ops
      r.Uas_hw.Estimate.r_operators
  in
  check "skipjack-mem" ~mem:8 ~ops:42 (S.Registry.skipjack_mem ());
  check "skipjack-hw" ~mem:0 ~ops:42 (S.Registry.skipjack_hw ());
  check "des-mem" ~mem:9 ~ops:73 (S.Registry.des_mem ());
  check "iir" ~mem:2 ~ops:42 (S.Registry.iir ())

let suite =
  [ Alcotest.test_case "Table 6.2 render is its golden" `Slow test_table_6_2;
    Alcotest.test_case "estimate renders are their goldens" `Slow
      test_estimates;
    Alcotest.test_case "plan renders are their goldens" `Slow test_plans;
    Alcotest.test_case "golden structure" `Quick test_golden_structure ]
