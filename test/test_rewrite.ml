(* The first-class rewrite layer: registry completeness, the uniform
   (Cu.t, Diag.t) result application contract, the pinned diagnostic of
   every rewrite, the no-escaping-exception guarantee through Pass.run,
   agreement with the direct transform entry points, and the cost-model
   planner built on top of the registry. *)

open Uas_ir
module B = Builder
module Rw = Uas_transform.Rewrite
module Sq = Uas_transform.Squash
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module P = Uas_core.Planner
module R = Uas_bench_suite.Registry

let expected_names =
  [ "interchange"; "flatten"; "hoist"; "ifconv"; "scalarize"; "scalar-opts";
    "jam"; "squash" ]

let cu_of p = Cu.make p ~outer_index:"i" ~inner_index:"j"
let params ?target ?factor () = { Rw.target; factor }

(* --- the registry --------------------------------------------------- *)

let test_registry_names () =
  Alcotest.(check (list string))
    "all 8 rewrites registered, in order" expected_names (Rw.names ())

let test_registry_lookup () =
  Alcotest.(check bool) "find squash" true (Rw.find "squash" <> None);
  Alcotest.(check bool) "find unknown" true (Rw.find "unsquash" = None);
  (match Rw.get "unsquash" with
  | exception Invalid_argument m ->
    Alcotest.(check bool)
      "error lists the valid names" true
      (Helpers.contains ~sub:"squash" m)
  | _ -> Alcotest.fail "get on an unknown name must raise");
  Alcotest.(check int)
    "no duplicate names"
    (List.length (Rw.names ()))
    (List.length (List.sort_uniq String.compare (Rw.names ())))

(* the --dump-after selector space: stage names and rewrite names must
   never collide *)
let test_selector_names_unique () =
  let all = Stages.names @ Rw.names () in
  Alcotest.(check int)
    "pass and rewrite names never collide" (List.length all)
    (List.length (List.sort_uniq compare all))

(* docs/TRANSFORMS.md documents the same catalog: every registered
   rewrite has a `name` table row (declared as a test dep; skipped when
   run outside the dune sandbox) *)
let test_catalog_in_docs () =
  match
    List.find_opt Sys.file_exists
      [ "../docs/TRANSFORMS.md"; "docs/TRANSFORMS.md" ]
  with
  | None -> Alcotest.skip ()
  | Some path ->
    let ic = open_in path in
    let len = in_channel_length ic in
    let doc = really_input_string ic len in
    close_in ic;
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (Printf.sprintf "docs/TRANSFORMS.md has a `%s` row" n)
          true
          (Helpers.contains ~sub:(Printf.sprintf "| `%s` |" n) doc))
      (Rw.names ())

(* --- uniform application -------------------------------------------- *)

(* every rewrite, applied with generic parameters: the outcome is
   always Ok or a diagnostic attributed to the rewrite by name — and Ok
   programs compute the same outputs as the original *)
let uniform_on ~msg p ~factor =
  List.iter
    (fun (rw : Rw.t) ->
      let name = Rw.name rw in
      let case = Printf.sprintf "%s/%s" msg name in
      match Rw.apply ~params:(params ~factor ()) rw (cu_of p) with
      | Ok cu' -> Helpers.assert_equivalent ~msg:case p (Cu.program cu')
      | Error d ->
        Alcotest.(check string)
          (case ^ ": diagnostic attributed to the rewrite")
          name d.Diag.d_pass
      | exception e ->
        Alcotest.failf "%s: escaped exception %s" case (Printexc.to_string e))
    (Rw.all ())

let test_uniform_application () =
  uniform_on ~msg:"fg" (Helpers.fg_loop ~m:6 ~n:4) ~factor:2;
  uniform_on ~msg:"mem" (Helpers.memory_loop ~m:8 ~n:4) ~factor:4

let test_missing_parameter_diagnostics () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  List.iter
    (fun n ->
      match Rw.apply (Rw.get n) (cu_of p) with
      | Error d ->
        Alcotest.(check bool)
          (n ^ ": missing factor reported")
          true
          (Helpers.contains ~sub:"missing required parameter: factor"
             (Diag.to_string d))
      | Ok _ -> Alcotest.failf "%s: must fail without a factor" n)
    [ "jam"; "squash" ]

(* a perfect static nest, every (i, j) iteration writing its own cell:
   interchange and flattening are legal here *)
let perfect_nest ~m ~n =
  B.program "perfect"
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("t", Types.Tint) ]
    ~arrays:[ B.input "src" (m * n); B.output "dst" (m * n) ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.for_ "j" ~hi:(B.int n)
            [ B.("t" <-- load "src" ((v "i" * int n) + v "j"));
              B.store "dst" B.((v "i" * int n) + v "j") B.(v "t" + int 1) ] ]
    ]

(* A grid of programs × parameter sets × every rewrite, legal and
   illegal: each application's outcome, "ok" or its diagnostic text,
   must equal the line recorded in rewrite_diagnostics.txt.  The
   diagnostics are what nimblec prints and the sweep's skip footers
   render, so a rewrite may not reword them silently. *)
let varbound =
  B.program "varbound"
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint) ]
    ~arrays:[ B.input "a" 4; B.output "o" 4 ]
    [ B.for_ "i" ~hi:(B.int 4)
        [ B.("x" <-- load "a" (v "i"));
          B.for_ "j" ~hi:(B.v "i") [ B.("x" <-- v "x" + int 1) ];
          B.store "o" (B.v "i") (B.v "x") ] ]

let test_pinned_diagnostics () =
  let programs =
    [ ("fg", Helpers.fg_loop ~m:6 ~n:4);
      ("mem", Helpers.memory_loop ~m:4 ~n:6);
      ("varbound", varbound);
      ("perfect", perfect_nest ~m:4 ~n:6) ]
  in
  let param_sets =
    [ ("none", params ());
      ("factor0", params ~factor:0 ());
      ("factor2-cut1", params ~factor:2 ());
      ("ghost", params ~factor:3 ~target:"ghost" ()) ]
  in
  let rendered =
    List.concat_map
      (fun (pn, p) ->
        List.concat_map
          (fun (sn, ps) ->
            List.map
              (fun rw ->
                Printf.sprintf "%s %s %s: %s" pn sn (Rw.name rw)
                  (match Rw.apply ~params:ps rw (cu_of p) with
                  | Ok _ -> "ok"
                  | Error d -> Diag.to_string d))
              (Rw.all ()))
          param_sets)
      programs
  in
  let pinned =
    In_channel.with_open_bin "rewrite_diagnostics.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "every rewrite outcome" pinned rendered

(* the satellite guarantee: no parameter set makes any rewrite escape
   Pass.run as a backtrace — every failure is a structured diagnostic *)
let test_no_exception_escapes_pass_run () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  let param_sets =
    [ Rw.default_params; params ~factor:0 ();
      params ~factor:(-3) ();
      params ~factor:2 ~target:"ghost" (); params ~factor:7 () ]
  in
  List.iter
    (fun ps ->
      List.iter
        (fun rw ->
          match Pass.run (cu_of p) [ Rw.to_pass ~params:ps rw ] with
          | Ok _ | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s: exception escaped Pass.run: %s" (Rw.name rw)
              (Printexc.to_string e))
        (Rw.all ()))
    param_sets

(* --- agreement with the direct entry points ------------------------- *)

let test_squash_registry_matches_direct () =
  let p = Helpers.fg_loop ~m:8 ~n:4 in
  let direct = Helpers.squash p (Helpers.nest_of p "i") ~ds:4 in
  match Rw.apply ~params:(params ~factor:4 ()) (Rw.get "squash") (cu_of p) with
  | Error d -> Alcotest.failf "squash via registry failed: %s" (Diag.to_string d)
  | Ok cu' ->
    Alcotest.(check bool)
      "same transformed program" true
      (Cu.program cu' = direct.Sq.program);
    Alcotest.(check string) "kernel re-pointed to the steady loop"
      direct.Sq.new_inner_index (Cu.inner_index cu');
    Alcotest.(check string) "outer index unchanged" "i" (Cu.outer_index cu')

let test_interchange_repoints_kernel () =
  let p = perfect_nest ~m:4 ~n:6 in
  match Rw.apply (Rw.get "interchange") (cu_of p) with
  | Error d -> Alcotest.failf "interchange refused: %s" (Diag.to_string d)
  | Ok cu' ->
    Alcotest.(check string) "outer index" "j" (Cu.outer_index cu');
    Alcotest.(check string) "inner index" "i" (Cu.inner_index cu');
    Helpers.assert_equivalent ~msg:"interchange" p (Cu.program cu')

let test_flatten_repoints_kernel () =
  let p = perfect_nest ~m:3 ~n:5 in
  match Rw.apply (Rw.get "flatten") (cu_of p) with
  | Error d -> Alcotest.failf "flatten refused: %s" (Diag.to_string d)
  | Ok cu' ->
    Alcotest.(check string) "collapsed kernel: a single loop"
      (Cu.outer_index cu') (Cu.inner_index cu');
    Alcotest.(check bool)
      "fresh flat index" true
      (not (String.equal (Cu.outer_index cu') "i"));
    Helpers.assert_equivalent ~msg:"flatten" p (Cu.program cu')

(* --- the planner ---------------------------------------------------- *)

let test_planner_objective_parsing () =
  List.iter
    (fun (s, o) ->
      Alcotest.(check bool) s true (P.objective_of_string s = o))
    [ ("ii", Some P.Ii); ("area", Some P.Area); ("ratio", Some P.Ratio);
      ("latency", None) ];
  Alcotest.(check string) "name" "ratio" (P.objective_name P.Ratio)

let test_planner_search_space () =
  let cands = P.candidates () in
  (* the two baselines plus every enabling prefix × squash factor *)
  Alcotest.(check int) "search-space size"
    (2 + (List.length P.enabling_prefixes * List.length P.default_factors))
    (List.length cands);
  let labels = List.map (fun c -> c.P.c_label) cands in
  Alcotest.(check int) "labels unique" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun c ->
      if c.P.c_ds > 1 then
        match List.rev c.P.c_sequence with
        | "squash" :: _ -> ()
        | _ -> Alcotest.failf "%s: sequence must end in squash" c.P.c_label)
    cands

let skipjack_plan objective =
  let b = R.skipjack_mem ~m:8 () in
  P.plan ~jobs:2 ~objective b.R.b_program ~outer_index:b.R.b_outer_index
    ~inner_index:b.R.b_inner_index ~benchmark:b.R.b_name

(* the ISSUE acceptance criterion: on Skipjack, some squash DS=4 plan
   must beat the untransformed DS=1 design on initiation interval *)
let test_planner_ranks_skipjack () =
  let plan = skipjack_plan P.Ii in
  Alcotest.(check int) "whole search space accounted for"
    (List.length (P.candidates ()))
    (List.length plan.P.p_rows);
  Alcotest.(check bool) "baseline measured" true (plan.P.p_baseline <> None);
  (match
     ( P.rank_of plan (fun c -> c.P.c_ds = 4),
       P.rank_of plan (fun c -> String.equal c.P.c_label "original") )
   with
  | Some s, Some o ->
    Alcotest.(check bool)
      (Printf.sprintf "squash DS=4 (rank %d) beats DS=1 (rank %d) on II" s o)
      true (s < o)
  | _ -> Alcotest.fail "both squash(4) and the original must be estimated");
  (* ranking is deterministic, and the table renders *)
  let labels p = List.map (fun r -> r.P.r_candidate.P.c_label) p.P.p_rows in
  Alcotest.(check (list string))
    "deterministic ranking" (labels plan)
    (labels (skipjack_plan P.Ii));
  Alcotest.(check bool) "pp renders" true
    (String.length (Fmt.str "%a" P.pp plan) > 0)

(* The planner evaluates each distinct prefixed program once and shares
   the outcome across the candidates that reach it.  The oracle is the
   per-candidate path that sharing replaces: a fresh unit, analyze, the
   whole sequence, then quick synthesis, in the candidate's own fault
   scope.  Every plan row must equal it, outcome and incident list. *)
let oracle_row ~ctx ?validate (b : R.benchmark) (c : P.candidate) =
  let ctx = Uas_runtime.Ctx.in_scope ctx (b.R.b_name ^ "/" ^ c.P.c_label) in
  let cu =
    Cu.make ~ctx b.R.b_program ~outer_index:b.R.b_outer_index
      ~inner_index:b.R.b_inner_index
  in
  let rewrites =
    List.map
      (fun name ->
        if String.equal name "squash" then
          Rw.pass ~factor:c.P.c_ds ?validate name
        else Rw.pass ?validate name)
      c.P.c_sequence
  in
  let passes =
    (Stages.analyze :: rewrites)
    @ Stages.quick_synthesis ~target:Uas_hw.Datapath.default
        ~pipelined:c.P.c_pipelined ~name:c.P.c_label
  in
  match Pass.run cu passes with
  | Ok cu -> (Ok (Option.get (Cu.report cu)), Cu.incidents cu)
  | Error d -> (Error d, [])

(* an outcome and its incidents, compared structurally *)
let outcome =
  let pp ppf (outcome, incidents) =
    (match outcome with
    | Ok r -> Fmt.pf ppf "ok %a" Uas_hw.Estimate.pp_report r
    | Error d -> Fmt.pf ppf "error %a" Diag.pp d);
    List.iter (fun d -> Fmt.pf ppf "@\nincident %a" Diag.pp d) incidents
  in
  Alcotest.testable pp ( = )

(* the search space [P.plan] explores on the benchmark's nest *)
let candidates_of (b : R.benchmark) =
  let depth =
    Option.value ~default:2
      (Uas_analysis.Loop_nest.depth_at b.R.b_program b.R.b_outer_index)
  in
  P.candidates ~depth ()

(* the oracle once per (benchmark, fault plan, validate mode), then a
   plan at each pool size against it *)
let check_plan_against_oracle ?plan:fault_plan ~validate (b : R.benchmark) =
  let probe = if validate then Some b.R.b_workload else None in
  let oracle =
    let ctx = Helpers.ctx ?plan:fault_plan () in
    List.map
      (fun c ->
        (c.P.c_label, oracle_row ~ctx ?validate:probe b c))
      (candidates_of b)
  in
  List.iter
    (fun jobs ->
      let planned =
        P.plan ~ctx:(Helpers.ctx ?plan:fault_plan ()) ~jobs ?validate:probe
          b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index ~benchmark:b.R.b_name
      in
      Alcotest.(check (list string))
        (b.R.b_name ^ ": one row per candidate")
        (List.sort compare (List.map fst oracle))
        (List.sort compare
           (List.map (fun r -> r.P.r_candidate.P.c_label) planned.P.p_rows));
      List.iter
        (fun (r : P.row) ->
          let label = r.P.r_candidate.P.c_label in
          Alcotest.check outcome
            (Printf.sprintf "%s/%s (jobs %d, validate %b)" b.R.b_name label
               jobs validate)
            (List.assoc label oracle)
            (r.P.r_outcome, r.P.r_incidents))
        planned.P.p_rows)
    [ 1; 2 ]

let test_planner_matches_oracle () =
  List.iter
    (fun b ->
      List.iter
        (fun validate -> check_plan_against_oracle ~validate b)
        [ false; true ])
    (R.all () @ R.extras ())

(* A corrupted enabling rewrite that validation rolls back leaves its
   candidate on the unprefixed program, so it shares the plain squash
   candidate's evaluation; its own incident must still be its own.
   Without validation the corrupted program is a group of its own. *)
let test_planner_shared_rows_keep_incidents () =
  List.iter
    (fun b ->
      let hoisted =
        List.find
          (fun c -> c.P.c_ds = 4 && List.mem "hoist" c.P.c_sequence)
          (candidates_of b)
      in
      let plan =
        Printf.sprintf "rewrite.apply=%s/%s:corrupt:1" b.R.b_name
          hoisted.P.c_label
      in
      List.iter
        (fun validate -> check_plan_against_oracle ~plan ~validate b)
        [ true; false ])
    [ R.iir (); R.wavelet3 () ]

let suite =
  [ Alcotest.test_case "registry names" `Quick test_registry_names;
    Alcotest.test_case "registry lookup and duplicates" `Quick
      test_registry_lookup;
    Alcotest.test_case "dump-after selectors unique" `Quick
      test_selector_names_unique;
    Alcotest.test_case "catalog documented in docs/TRANSFORMS.md" `Quick
      test_catalog_in_docs;
    Alcotest.test_case "uniform result application" `Quick
      test_uniform_application;
    Alcotest.test_case "missing parameters are diagnostics" `Quick
      test_missing_parameter_diagnostics;
    Alcotest.test_case "every rewrite diagnostic pinned" `Quick
      test_pinned_diagnostics;
    Alcotest.test_case "no exception escapes Pass.run" `Quick
      test_no_exception_escapes_pass_run;
    Alcotest.test_case "squash via registry = direct" `Quick
      test_squash_registry_matches_direct;
    Alcotest.test_case "interchange re-points the kernel" `Quick
      test_interchange_repoints_kernel;
    Alcotest.test_case "flatten re-points the kernel" `Quick
      test_flatten_repoints_kernel;
    Alcotest.test_case "planner objective parsing" `Quick
      test_planner_objective_parsing;
    Alcotest.test_case "planner search space" `Quick test_planner_search_space;
    Alcotest.test_case "planner ranks Skipjack (DS=4 beats DS=1)" `Slow
      test_planner_ranks_skipjack;
    Alcotest.test_case "planner rows = per-candidate oracle" `Slow
      test_planner_matches_oracle;
    Alcotest.test_case "planner shared rows keep own incidents" `Slow
      test_planner_shared_rows_keep_incidents ]
