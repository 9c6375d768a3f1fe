(* The fast-tier contract: the slot-compiled interpreter must be
   observationally identical to the reference tree-walker — outputs,
   final scalars, the complete cycle/trip/mem-ref profile, the same
   Stuck messages and the same Out_of_fuel cutoff.  The reference
   interpreter stays the oracle everywhere in this file; the fast tier
   is always the candidate. *)

open Uas_ir
module N = Uas_core.Nimble
module R = Uas_bench_suite.Registry

(* run both tiers; fail the test with the first difference *)
let check_parity ~msg (p : Stmt.program) (w : Interp.workload) =
  let reference = Interp.run p w in
  let fast = Fast_interp.run_program p w in
  match Interp.diff_results reference fast with
  | None -> ()
  | Some d -> Alcotest.failf "%s: fast tier diverges: %s" msg d

(* --- random nests, all transform versions ------------------------- *)

let fast_versions = [ N.Original; N.Squashed 2; N.Squashed 4; N.Jammed 2;
                      N.Combined (2, 2) ]

let test_qcheck_fast_tier_bit_identical =
  QCheck.Test.make
    ~name:"fast tier = reference (results + profiles), all versions"
    ~count:40 Helpers.arbitrary_diff_nest_program
    (fun p ->
      let w = Helpers.random_workload ~seed:23 p in
      List.iter
        (fun v ->
          match Helpers.build p ~outer_index:"i" ~inner_index:"j" v with
          | Error _ -> ()  (* illegal at this factor: dropped, as in sweep *)
          | Ok q -> (
            let reference = Interp.run q w in
            let fast = Fast_interp.run_program q w in
            match Interp.diff_results reference fast with
            | None -> ()
            | Some d ->
              QCheck.Test.fail_reportf "%s: fast tier diverges: %s@\n%a"
                (N.version_name v) d Pp.pp_program q))
        fast_versions;
      true)

(* compilation must be reusable: one compiled program replayed on
   several workloads, each bit-identical to a fresh reference run *)
let test_compiled_reuse =
  QCheck.Test.make ~name:"one compilation, many workloads" ~count:20
    Helpers.arbitrary_nest_program
    (fun p ->
      let compiled = Fast_interp.compile p in
      List.iter
        (fun seed ->
          let w = Helpers.random_workload ~seed p in
          let reference = Interp.run p w in
          let fast = Fast_interp.run compiled w in
          match Interp.diff_results reference fast with
          | None -> ()
          | Some d ->
            QCheck.Test.fail_reportf "seed %d: fast tier diverges: %s" seed d)
        [ 1; 2; 3 ];
      true)

(* --- rewritten nests, both tiers ---------------------------------- *)

module Rw = Uas_transform.Rewrite
module Cu = Uas_pass.Cu
module Pass = Uas_pass.Pass

let cu_of p = Cu.make p ~outer_index:"i" ~inner_index:"j"

(* a legal rewrite must (1) preserve the reference outputs and (2) keep
   the two tiers bit-identical on the rewritten program *)
let check_rewritten_parity ~msg p q w =
  (match Interp.diff_outputs (Interp.run p w) (Interp.run q w) with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s: rewrite changed the outputs: %s@\n%a" msg d
      Pp.pp_program q);
  match Interp.diff_results (Interp.run q w) (Fast_interp.run_program q w) with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s: fast tier diverges: %s@\n%a" msg d Pp.pp_program q

(* every non-empty enabling prefix of the planner, its rewrites run in
   order as the planner runs them before squashing; a prefix the nest
   refuses (interchange on an imperfect nest) is dropped, as the
   planner drops the candidate *)
let check_enabling_prefixes ~msg cu w =
  let p = Cu.program cu in
  List.iter
    (fun prefix ->
      match Pass.run cu (List.map (fun name -> Rw.pass name) prefix) with
      | Error _ -> ()
      | Ok cu' ->
        check_rewritten_parity
          ~msg:(msg ^ "/" ^ String.concat "+" prefix)
          p (Cu.program cu') w)
    (List.filter (fun prefix -> prefix <> [])
       Uas_core.Planner.enabling_prefixes)

let test_qcheck_enabling_rewrites_parity =
  QCheck.Test.make
    ~name:"enabling prefixes keep tiers bit-identical (random nests)"
    ~count:40 Helpers.arbitrary_diff_nest_program
    (fun p ->
      check_enabling_prefixes ~msg:"random" (cu_of p)
        (Helpers.random_workload ~seed:31 p);
      true)

(* perfect static nests are interchange/flatten-legal by construction:
   assert the rewrites apply, then check both tiers on the result *)
let test_qcheck_perfect_nest_rewrites_parity =
  QCheck.Test.make
    ~name:"interchange/flatten keep tiers bit-identical (perfect nests)"
    ~count:40 Helpers.arbitrary_perfect_nest_program
    (fun p ->
      let w = Helpers.random_workload ~seed:47 p in
      List.iter
        (fun name ->
          match Rw.apply (Rw.get name) (cu_of p) with
          | Error d ->
            Alcotest.failf "%s refused on a perfect nest: %s" name
              (Uas_pass.Diag.to_string d)
          | Ok cu -> check_rewritten_parity ~msg:name p (Cu.program cu) w)
        [ "interchange"; "flatten" ];
      true)

(* --- the whole Table 6.1 suite ------------------------------------ *)

(* the guaranteed-coverage counterpart of the random-nest property: the
   kernels the planner actually prefixes *)
let test_registry_enabling_prefixes_parity () =
  List.iter
    (fun (b : R.benchmark) ->
      check_enabling_prefixes ~msg:b.R.b_name
        (Cu.make b.R.b_program ~outer_index:b.R.b_outer_index
           ~inner_index:b.R.b_inner_index)
        b.R.b_workload)
    (R.all () @ R.extras ())

let test_registry_benchmarks_identical () =
  List.iter
    (fun (b : R.benchmark) ->
      check_parity ~msg:b.R.b_name b.R.b_program b.R.b_workload)
    (R.all () @ R.extras ())

let test_registry_check_fast_tier () =
  List.iter
    (fun (b : R.benchmark) ->
      match R.check_against_reference b b.R.b_program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: fast-tier check failed: %s" b.R.b_name e)
    (R.all () @ R.extras ())

(* --- Stuck parity -------------------------------------------------- *)

module B = Builder

let stuck_of f =
  match f () with
  | (_ : Interp.result) -> None
  | exception Interp.Stuck m -> Some m

let check_stuck_parity ~msg p w =
  let reference = stuck_of (fun () -> Interp.run p w) in
  let fast = stuck_of (fun () -> Fast_interp.run_program p w) in
  match (reference, fast) with
  | Some a, Some b -> Alcotest.(check string) (msg ^ ": same message") a b
  | None, None -> Alcotest.failf "%s: expected Stuck from both tiers" msg
  | Some a, None -> Alcotest.failf "%s: only reference stuck (%s)" msg a
  | None, Some b -> Alcotest.failf "%s: only fast tier stuck (%s)" msg b

let w0 = Interp.workload ()

let nest body =
  B.program "stuck" ~locals:[ ("i", Types.Tint); ("a", Types.Tint) ]
    ~arrays:[ B.output "dst" 4 ]
    ~roms:[ B.rom_decl "tab" [| 1; 2; 3 |] ]
    [ B.for_ "i" ~hi:(B.int 4) body ]

let test_stuck_parity () =
  check_stuck_parity ~msg:"store out of bounds"
    (nest [ B.store "dst" (B.int 9) (B.v "i") ])
    w0;
  check_stuck_parity ~msg:"load from undeclared array"
    (nest [ B.("a" <-- load "nope" (v "i")) ])
    w0;
  check_stuck_parity ~msg:"store to undeclared array"
    (nest [ B.store "nope" (B.v "i") (B.v "i") ])
    w0;
  check_stuck_parity ~msg:"read of undeclared scalar"
    (nest [ B.store "dst" (B.v "i") (B.v "ghost") ])
    w0;
  check_stuck_parity ~msg:"assignment to undeclared scalar"
    (nest [ B.("ghost" <-- v "i") ])
    w0;
  check_stuck_parity ~msg:"division by zero"
    (nest [ B.("a" <-- v "i" / (v "i" - v "i")) ])
    w0;
  check_stuck_parity ~msg:"rom lookup out of bounds"
    (nest [ B.("a" <-- rom "tab" (v "i" + int 2)) ])
    w0;
  check_stuck_parity ~msg:"lookup in undeclared rom"
    (nest [ B.("a" <-- rom "missing" (v "i")) ])
    w0;
  check_stuck_parity ~msg:"non-integer loop bound"
    (B.program "fbound" ~locals:[ ("i", Types.Tint) ]
       [ B.for_ "i" ~hi:(B.flt 2.0) [] ])
    w0;
  check_stuck_parity ~msg:"workload sets undeclared scalar"
    (nest [ B.store "dst" (B.v "i") (B.v "i") ])
    (Interp.workload ~scalars:[ ("ghost", Types.VInt 1) ] ());
  check_stuck_parity ~msg:"workload array length mismatch"
    (B.program "wl" ~locals:[ ("i", Types.Tint) ]
       ~arrays:[ B.input "src" 4; B.output "dst" 4 ]
       [ B.for_ "i" ~hi:(B.int 4)
           [ B.store "dst" (B.v "i") (B.load "src" (B.v "i")) ] ])
    (Interp.workload ~arrays:[ ("src", [| Types.VInt 1 |]) ] ())

(* an undeclared loop index is admitted dynamically by the reference
   interpreter: legal to read after its loop ran, stuck before *)
let test_undeclared_index_parity () =
  let p after =
    B.program "undecl" ~locals:[ ("a", Types.Tint) ]
      ~arrays:[ B.output "dst" 4 ]
      ([ B.for_ "u" ~hi:(B.int 3) [ B.("a" <-- v "u") ] ] @ after)
  in
  check_parity ~msg:"read undeclared index after its loop"
    (p [ B.store "dst" (B.int 0) (B.v "u") ])
    w0;
  check_stuck_parity ~msg:"read undeclared index before its loop"
    (B.program "undecl2" ~locals:[ ("a", Types.Tint) ]
       ~arrays:[ B.output "dst" 4 ]
       [ B.store "dst" (B.int 0) (B.v "u");
         B.for_ "u" ~hi:(B.int 3) [ B.("a" <-- v "u") ] ])
    w0;
  (* a zero-trip loop still defines its index (the C-style exit value) *)
  check_parity ~msg:"zero-trip loop defines its index"
    (p [ B.for_ "u" ~lo:(B.int 5) ~hi:(B.int 2) [];
         B.store "dst" (B.int 1) (B.v "u") ])
    w0

(* --- Out_of_fuel parity -------------------------------------------- *)

let test_fuel_parity () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  let w = Helpers.random_workload p in
  (* total statements executed by a full run *)
  let full = (Interp.run p w).Interp.profile.Interp.stmts_executed in
  let runs_with fuel f =
    match f fuel with
    | (_ : Interp.result) -> true
    | exception Interp.Out_of_fuel -> false
  in
  List.iter
    (fun fuel ->
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d: same cutoff" fuel)
        (runs_with fuel (fun fuel -> Interp.run ~fuel p w))
        (runs_with fuel (fun fuel -> Fast_interp.run_program ~fuel p w)))
    [ 1; 2; full - 1; full; full + 1 ]

(* how a run ends, as a printable verdict *)
let outcome f =
  match f () with
  | (_ : Interp.result) -> "completed"
  | exception Interp.Out_of_fuel -> "Out_of_fuel"
  | exception Interp.Stuck m -> "Stuck: " ^ m

(* both tiers end every run from fuel 0 to [upto] the same way *)
let check_every_fuel ~msg ~upto p w =
  for fuel = 0 to upto do
    Alcotest.(check string)
      (Printf.sprintf "%s, fuel %d" msg fuel)
      (outcome (fun () -> Interp.run ~fuel p w))
      (outcome (fun () -> Fast_interp.run_program ~fuel p w))
  done

(* the fast tier takes a straight-line run's fuel at once when it
   covers the run: the cutoff must still land on the reference's
   statement, for every fuel value and every statement shape *)
let test_fuel_cutoff_every_value () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  let w = Helpers.random_workload p in
  List.iter
    (fun v ->
      match Helpers.build p ~outer_index:"i" ~inner_index:"j" v with
      | Error d ->
        Alcotest.failf "%s did not build: %s" (N.version_name v)
          (Uas_pass.Diag.to_string d)
      | Ok q ->
        let full = (Interp.run q w).Interp.profile.Interp.stmts_executed in
        check_every_fuel ~msg:(N.version_name v) ~upto:(full + 1) q w)
    [ N.Original; N.Squashed 2; N.Jammed 2 ]

(* a Stuck store in the middle of a straight-line run, on the second
   trip: fuel that runs out before it, at it and after it *)
let test_fuel_cutoff_around_stuck () =
  let p =
    B.program "stuck_run" ~locals:[ ("i", Types.Tint); ("a", Types.Tint) ]
      ~arrays:[ B.output "dst" 4 ]
      [ B.for_ "i" ~hi:(B.int 2)
          [ B.("a" <-- v "i" + int 1);
            B.("a" <-- v "a" + v "a");
            B.store "dst" B.(v "a") (B.v "i");
            B.("a" <-- v "a" - int 1) ] ]
  in
  (* the loop and the four statements of the first trip take fuel 5;
     the store is the third statement of the second trip, so fuel 7
     runs out just before it and fuel 8 reaches it.  From fuel 9 on
     the fuel covers the whole second trip. *)
  check_every_fuel ~msg:"stuck store" ~upto:10 p w0;
  Alcotest.(check string) "fuel 7 runs out before the store" "Out_of_fuel"
    (outcome (fun () -> Fast_interp.run_program ~fuel:7 p w0));
  Alcotest.(check string) "fuel 8 reaches the store"
    "Stuck: store dst[4] out of bounds (size 4)"
    (outcome (fun () -> Fast_interp.run_program ~fuel:8 p w0))

(* the satellite fix: a missing output array must be reported with the
   benchmark name and the outputs the run actually produced *)
let test_registry_missing_output_message () =
  let b = R.skipjack_mem ~m:4 () in
  let b' =
    { b with R.b_reference = [ ("data_missing", [| Types.VInt 0 |]) ] }
  in
  match R.check_against_reference b' b.R.b_program with
  | Ok () -> Alcotest.fail "expected a missing-output error"
  | Error msg ->
    let has sub =
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" sub)
        true
        (Helpers.contains ~sub msg)
    in
    has "Skipjack-mem";
    has "data_missing";
    has "data_out"

(* the experiments path: run_benchmark verifies on the compiled
   interpreter; every cell must get the verdict the reference oracle
   gives the same built program *)
let test_run_benchmark_tiers_agree () =
  let module E = Uas_core.Experiments in
  let b = R.skipjack_mem ~m:8 () in
  let cells =
    (E.run_benchmark ~verify:true ~versions:fast_versions ~jobs:2 b).E.br_cells
  in
  Alcotest.(check int) "cell count" (List.length fast_versions)
    (List.length cells);
  List.iter
    (fun (c : E.cell) ->
      let msg = N.version_name c.E.c_version in
      match
        Helpers.build b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index c.E.c_version
      with
      | Error d ->
        Alcotest.failf "%s did not build: %s" msg (Uas_pass.Diag.to_string d)
      | Ok q ->
        let reference = Interp.run q b.R.b_workload in
        Alcotest.(check bool) (msg ^ " verified on the fast tier") true
          c.E.c_verified;
        Alcotest.(check bool) (msg ^ " verified on the reference tier") true
          (R.check_result b reference = Ok ()))
    cells

(* every Table 6.2 cell: the 50 programs verification replays, on the
   reference oracle and the compiled interpreter *)
let test_table_6_2_cells_parity () =
  let cells =
    List.concat_map
      (fun (b : R.benchmark) ->
        List.map
          (fun v ->
            let msg = b.R.b_name ^ "/" ^ N.version_name v in
            match
              Helpers.build b.R.b_program ~outer_index:b.R.b_outer_index
                ~inner_index:b.R.b_inner_index v
            with
            | Ok q -> check_parity ~msg q b.R.b_workload
            | Error d ->
              Alcotest.failf "%s did not build: %s" msg
                (Uas_pass.Diag.to_string d))
          N.paper_versions)
      (R.all ())
  in
  Alcotest.(check int) "cells compared" 50 (List.length cells)

let suite =
  [ QCheck_alcotest.to_alcotest test_qcheck_fast_tier_bit_identical;
    QCheck_alcotest.to_alcotest test_compiled_reuse;
    QCheck_alcotest.to_alcotest test_qcheck_enabling_rewrites_parity;
    QCheck_alcotest.to_alcotest test_qcheck_perfect_nest_rewrites_parity;
    Alcotest.test_case "enabling prefixes on registry kernels" `Slow
      test_registry_enabling_prefixes_parity;
    Alcotest.test_case "registry benchmarks bit-identical" `Slow
      test_registry_benchmarks_identical;
    Alcotest.test_case "registry check passes on fast tier" `Slow
      test_registry_check_fast_tier;
    Alcotest.test_case "Stuck parity (messages bit-identical)" `Quick
      test_stuck_parity;
    Alcotest.test_case "undeclared loop index parity" `Quick
      test_undeclared_index_parity;
    Alcotest.test_case "Out_of_fuel parity" `Quick test_fuel_parity;
    Alcotest.test_case "missing output error names benchmark" `Quick
      test_registry_missing_output_message;
    Alcotest.test_case "run_benchmark: ref and fast tiers agree" `Slow
      test_run_benchmark_tiers_agree;
    Alcotest.test_case "tier parity: all 50 Table 6.2 cells" `Slow
      test_table_6_2_cells_parity;
    Alcotest.test_case "Out_of_fuel cutoff at every fuel value" `Quick
      test_fuel_cutoff_every_value;
    Alcotest.test_case "Out_of_fuel cutoff around a Stuck statement" `Quick
      test_fuel_cutoff_around_stuck ]
