(* Unit tests of the benchmark's statistics, verdicts and results
   format, against the repository's BENCHMARK.json. *)

open Perf_lib

let spec_path = "../../../BENCHMARK.json"
let floats = Alcotest.(list (float 1e-9))
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

(* ---- percentiles: ten samples above, or no percentile ---- *)

let test_p90_needs_ten_above () =
  (match Stats.percentile ~p:90.0 (range 1 100) with
  | Ok v -> Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 v
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "ten above p90 of 100" 10 (Stats.samples_above ~p:90.0 100);
  (match Stats.percentile ~p:90.0 (range 1 99) with
  | Ok v -> Alcotest.failf "p90 of 99 samples reported (%g)" v
  | Error _ -> ());
  match Stats.percentile ~p:50.0 (range 1 20) with
  | Ok v -> Alcotest.(check (float 0.0)) "p50 of 1..20" 10.0 v
  | Error m -> Alcotest.fail m

let test_p90_nearest_rank () =
  match Stats.percentile ~p:90.0 (List.rev (range 1 200)) with
  | Ok v -> Alcotest.(check (float 0.0)) "180th of 200, input order ignored" 180.0 v
  | Error m -> Alcotest.fail m

(* ---- quartiles: Python's statistics.quantiles(xs, n=4) ---- *)

let test_quartiles () =
  let q xs =
    let a, b, c = Stats.quartiles xs in
    [ a; b; c ]
  in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (q (range 1 10));
  Alcotest.check floats "unsorted" [ 1.8125; 3.75; 7.75 ] (q [ 3.5; 1.25; 9.0; 4.0 ]);
  Alcotest.check floats "odd count" [ 20.0; 40.0; 60.0 ]
    (q [ 70.0; 10.0; 20.0; 30.0; 40.0; 50.0; 60.0 ]);
  Alcotest.check floats "ties" [ 2.0; 2.0; 2.0 ] (q [ 2.0; 2.0 ])

(* ---- verdicts against bounds ---- *)

let verdict = Alcotest.testable (fun ppf v -> Fmt.string ppf (Verdict.to_string v)) ( = )
let around x = List.init 10 (fun i -> x +. (0.001 *. float_of_int (i mod 3)))

let test_verdict_bounds () =
  let v ?(better = Verdict.Lower) ?(bound = 0.1) ?(floor = 0.0) a b =
    Verdict.verdict ~better ~bound ~floor a b
  in
  Alcotest.check verdict "within bound" Verdict.No_worse (v (around 100.0) (around 105.0));
  Alcotest.check verdict "beyond bound" Verdict.Regressed (v (around 100.0) (around 115.0));
  Alcotest.check verdict "higher is better: a drop regresses" Verdict.Regressed
    (v ~better:Verdict.Higher (around 100.0) (around 85.0));
  (* 3 ms -> 3.5 ms is 17% but under the 1 ms latency floor *)
  Alcotest.check verdict "absolute floor" Verdict.No_worse
    (v ~floor:(Verdict.floor ~name:"req_p50_ms" ~unit_:"ms") (around 3.0) (around 3.5));
  Alcotest.check verdict "floor exceeded" Verdict.Regressed
    (v ~floor:1.0 (around 3.0) (around 4.5));
  Alcotest.(check (float 0.0)) "setup floor" 0.05 (Verdict.floor ~name:"setup_s" ~unit_:"s")

let test_verdict_unresolved () =
  let noisy = [ 80.; 90.; 100.; 110.; 120.; 85.; 95.; 105.; 115.; 100. ] in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved
    (Verdict.verdict ~better:Verdict.Lower ~bound:0.1 ~floor:0.0 noisy noisy);
  (* the same spread, but every change run beats every parent run *)
  let better = List.map (fun x -> x -. 50.0) noisy in
  Alcotest.(check bool) "all better is not unresolved" true
    (Verdict.verdict ~better:Verdict.Lower ~bound:0.1 ~floor:0.0 noisy better
    <> Verdict.Unresolved)

let test_verdict_gain_rule () =
  let parent = around 100.0 in
  Alcotest.check verdict "ten winning pairs" Verdict.Improved
    (Verdict.verdict ~better:Verdict.Lower ~bound:0.1 ~floor:0.0 parent (around 80.0));
  Alcotest.check verdict "too few pairs to claim" Verdict.No_worse
    (Verdict.verdict ~better:Verdict.Lower ~bound:0.1 ~floor:0.0
       (List.filteri (fun i _ -> i < 9) parent)
       (List.filteri (fun i _ -> i < 9) (around 80.0)));
  (* wins 8 of 10 pairs: not 9 in 10 *)
  let change = List.mapi (fun i x -> if i < 2 then x +. 1.0 else x -. 20.0) parent in
  Alcotest.(check bool) "8 of 10 pairs is no gain" true
    (Verdict.verdict ~better:Verdict.Lower ~bound:0.25 ~floor:0.0 parent change
    <> Verdict.Improved)

(* ---- names and BENCHMARK.json ---- *)

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Results.valid_name n))
    [ "setup_s"; "req_p90_ms"; "runtime.store.hit_ratio"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Results.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "p90%"; String.make 65 'a' ]

let spec () =
  match Results.load_spec spec_path with Ok s -> s | Error m -> Alcotest.fail m

let test_spec () =
  let s = spec () in
  let names = List.map (fun m -> m.Results.m_name) (s.Results.end_to_end @ s.Results.per_layer) in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (m : Results.metric) ->
      match m.Results.m_bound with
      | Some b -> Alcotest.(check bool) (m.Results.m_name ^ " bound <= 0.25") true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.fail (m.Results.m_name ^ " has no bound"))
    s.Results.end_to_end;
  match Results.find_metric s "setup_s" with
  | Some m ->
    Alcotest.(check string) "setup_s unit" "s" m.Results.m_unit;
    Alcotest.(check bool) "setup_s lower" true (m.Results.m_better = Verdict.Lower)
  | None -> Alcotest.fail "setup_s missing"

let test_results_declared () =
  let s = spec () in
  let all = List.map (fun m -> (m.Results.m_name, 1.5)) s.Results.end_to_end in
  (match Results.render s { Results.correct = true; attempted = 3; failed = 0; metrics = all } with
  | Error m -> Alcotest.fail m
  | Ok line -> (
    match Results.parse_line line with
    | Ok r ->
      Alcotest.(check (list string)) "round trip" (List.map fst all) (List.map fst r.Results.metrics);
      Alcotest.(check (list string)) "all declared" [] (Results.undeclared s r.Results.metrics)
    | Error m -> Alcotest.fail m));
  match
    Results.render s
      { Results.correct = true; attempted = 1; failed = 0; metrics = [ ("not_declared_ms", 1.0) ] }
  with
  | Ok _ -> Alcotest.fail "an undeclared metric was rendered"
  | Error _ -> ()

(* Saved runs, untraced and traced: each metric they print must be
   declared, and they must print every declared metric of their kind. *)
let test_saved_runs () =
  let s = spec () in
  List.iter
    (fun file ->
      match Results.load_run file with
      | Error m -> Alcotest.fail m
      | Ok run ->
        let names = List.map fst run.Results.rf_result.Results.metrics in
        Alcotest.(check (list string)) (file ^ " undeclared") []
          (Results.undeclared s run.Results.rf_result.Results.metrics);
        let kind =
          if List.mem "setup_s" names then s.Results.end_to_end else s.Results.per_layer
        in
        Alcotest.(check (list string)) (file ^ " complete")
          (List.map (fun m -> m.Results.m_name) kind) names)
    [ "sample-run.txt"; "sample-run-traced.txt" ]

let () =
  Alcotest.run "perf"
    [ ( "stats",
        [ Alcotest.test_case "p90 needs ten samples above" `Quick test_p90_needs_ten_above;
          Alcotest.test_case "p90 nearest rank" `Quick test_p90_nearest_rank;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles ] );
      ( "verdict",
        [ Alcotest.test_case "bounds and floors" `Quick test_verdict_bounds;
          Alcotest.test_case "unresolved" `Quick test_verdict_unresolved;
          Alcotest.test_case "gain rule" `Quick test_verdict_gain_rule ] );
      ( "results",
        [ Alcotest.test_case "metric name charset" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_spec;
          Alcotest.test_case "results declared" `Quick test_results_declared;
          Alcotest.test_case "saved runs declared" `Quick test_saved_runs ] ) ]
