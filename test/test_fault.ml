(* Fault-injection integration: an injected fault at any pipeline site
   surfaces as a structured diagnostic — never an escaping backtrace —
   translation validation catches a miscompiling (corrupted) rewrite
   and degrades to the last-known-good program, a verification run
   gone stuck degrades its cell without aborting the sweep, and a
   clean run is byte-identical with validation on or off. *)

module Fault = Uas_runtime.Fault
module Rw = Uas_transform.Rewrite
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module E = Uas_core.Experiments
module N = Uas_core.Nimble
module P = Uas_core.Planner
module R = Uas_bench_suite.Registry

let cu_of ?ctx p = Cu.make ?ctx p ~outer_index:"i" ~inner_index:"j"
let faulty plan = Helpers.ctx ~plan ()
let reset () = Fault.set_stall_cap 1.0

(* --- satellite (d): nothing escapes Pass.run as a backtrace ---------- *)

(* Every registered rewrite × every fault kind × both pipeline sites:
   Pass.run returns Ok or a diagnostic that renders — the exception
   translator in Diag covers every injected fault.  The seed is pinned
   by QCHECK_SEED in dune, but the property is total over the
   enumerated space anyway. *)
let test_injection_never_escapes =
  let arb =
    QCheck.make
      ~print:(fun (n, k, s) -> Printf.sprintf "%s:%s at %s" n k s)
      QCheck.Gen.(
        triple
          (oneofl (Rw.names ()))
          (oneofl [ "raise"; "stall"; "corrupt" ])
          (oneofl [ "pass.run"; "rewrite.apply" ]))
  in
  QCheck.Test.make ~name:"injected faults never escape Pass.run" ~count:150
    arb (fun (name, kind, site) ->
      Fault.set_stall_cap 0.01;
      let ctx = faulty (Printf.sprintf "%s=%s:%s:1" site name kind) in
      let p = Helpers.fg_loop ~m:4 ~n:4 in
      let passes = [ Stages.analyze; Rw.pass ~factor:2 name ] in
      let outcome =
        try Ok (Pass.run (cu_of ~ctx p) passes) with e -> Error e
      in
      reset ();
      match outcome with
      | Error e ->
        QCheck.Test.fail_reportf "%s:%s at %s escaped Pass.run: %s" name kind
          site (Printexc.to_string e)
      | Ok (Ok _) -> true
      | Ok (Error d) ->
        (* the diagnostic renders, attributed to a pass *)
        String.length (Diag.to_string d) > 0
        && String.length d.Diag.d_pass > 0)

(* The exception translator renders the injected fault by site and
   kind, for every kind that raises at each site. *)
let test_injected_fault_renders () =
  reset ();
  Fun.protect ~finally:reset (fun () ->
      Fault.set_stall_cap 0.01;
      let p = Helpers.fg_loop ~m:4 ~n:4 in
      List.iter
        (fun (site, kind) ->
          let ctx = faulty (Printf.sprintf "%s=squash:%s:1" site kind) in
          match
            Pass.run (cu_of ~ctx p)
              [ Stages.analyze; Rw.pass ~factor:2 "squash" ]
          with
          | Error d ->
            Alcotest.(check bool)
              (Printf.sprintf "%s:%s renders as an injected-fault diag" site
                 kind)
              true
              (Helpers.contains
                 ~sub:(Printf.sprintf "injected fault at site %s" site)
                 (Diag.to_string d))
          | Ok _ ->
            Alcotest.failf "%s:%s did not fire" site kind)
        [ ("pass.run", "raise"); ("pass.run", "stall");
          ("pass.run", "corrupt"); ("rewrite.apply", "raise");
          ("rewrite.apply", "stall") ])

(* --- translation validation ----------------------------------------- *)

(* With no faults armed, validation is invisible: same program as the
   plain application, no incidents. *)
let test_validated_apply_clean () =
  let p = Helpers.memory_loop ~m:8 ~n:4 in
  let probe = Helpers.random_workload p in
  let rw = Rw.get "squash" in
  let params = { Rw.default_params with Rw.factor = Some 2 } in
  match
    ( Rw.apply ~params rw (cu_of p),
      Rw.validated_apply ~params ~probe rw (cu_of p) )
  with
  | Ok plain, Ok validated ->
    Alcotest.(check string)
      "same program"
      (Uas_ir.Pp.program_to_string (Cu.program plain))
      (Uas_ir.Pp.program_to_string (Cu.program validated));
    Alcotest.(check int) "no incidents" 0
      (List.length (Cu.incidents validated))
  | _ -> Alcotest.fail "squash(2) must apply cleanly on the memory loop"

(* A corrupted application is caught by the probe runs: the rewrite is
   not applied, the unit degrades to the pre-rewrite program with an
   incident instead of propagating a miscompiled kernel. *)
let test_validated_apply_catches_corruption () =
  let ctx = faulty "rewrite.apply=squash:corrupt:1" in
  let p = Helpers.memory_loop ~m:8 ~n:4 in
  let probe = Helpers.random_workload p in
  let rw = Rw.get "squash" in
  let params = { Rw.default_params with Rw.factor = Some 2 } in
  match Rw.validated_apply ~params ~probe rw (cu_of ~ctx p) with
  | Error d -> Alcotest.failf "degradation must be Ok: %s" (Diag.to_string d)
  | Ok cu -> (
    Alcotest.(check string)
      "degraded to the pre-rewrite program"
      (Uas_ir.Pp.program_to_string p)
      (Uas_ir.Pp.program_to_string (Cu.program cu));
    match Cu.incidents cu with
    | [ d ] ->
      Alcotest.(check bool)
        "incident names the validation failure" true
        (Helpers.contains ~sub:"validation failed" (Diag.to_string d))
    | ds -> Alcotest.failf "expected 1 incident, got %d" (List.length ds))

(* Without validation the same corruption sails through — the scenario
   validated_apply exists for. *)
let test_unvalidated_corruption_propagates () =
  let ctx = faulty "rewrite.apply=squash:corrupt:1" in
  let p = Helpers.memory_loop ~m:8 ~n:4 in
  let rw = Rw.get "squash" in
  let params = { Rw.default_params with Rw.factor = Some 2 } in
  match Rw.apply ~params rw (cu_of ~ctx p) with
  | Ok cu ->
    let clean = Result.get_ok (Rw.apply ~params rw (cu_of p)) in
    Alcotest.(check bool)
      "program differs from the honest application" true
      (not
         (String.equal
            (Uas_ir.Pp.program_to_string (Cu.program cu))
            (Uas_ir.Pp.program_to_string (Cu.program clean))))
  | Error d -> Alcotest.failf "corrupt must not reject: %s" (Diag.to_string d)

(* --- satellite (b): a stuck verification run degrades, never aborts -- *)

let iir () =
  match R.find "iir" with
  | Some b -> b
  | None -> Alcotest.fail "IIR benchmark missing"

let test_stuck_verification_degrades_cell () =
  (* the stall kind at the interpreter site exhausts the fuel budget:
     the verification run raises Out_of_fuel *)
  let row =
    E.run_benchmark ~ctx:(faulty "interp.run:stall:1") ~verify:true
      ~versions:[ N.Original ] ~jobs:1 (iir ())
  in
  match row.E.br_cells with
  | [ c ] ->
    Alcotest.(check bool) "cell unverified" false c.E.c_verified;
    Alcotest.(check bool)
      "incident says out of fuel" true
      (List.exists
         (fun d -> Helpers.contains ~sub:"out of fuel" (Diag.to_string d))
         c.E.c_incidents);
    let rendered = Fmt.str "%a" E.pp_table_6_2 [ row ] in
    Alcotest.(check bool)
      "degraded footer rendered" true
      (Helpers.contains ~sub:"degraded:" rendered)
  | cells -> Alcotest.failf "expected 1 cell, got %d" (List.length cells)

(* --- the artifact store under injected faults ------------------------ *)

module Store = Uas_runtime.Store

let store_dir_counter = ref 0

let with_fresh_store f =
  incr store_dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uas-fault-store-%d-%d" (Unix.getpid ())
         !store_dir_counter)
  in
  match Store.open_dir dir with
  | Ok s ->
    Fun.protect ~finally:(fun () -> Helpers.remove_tree dir) (fun () -> f s)
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m

let store_versions = [ N.Original; N.Squashed 2 ]

(* the table body with the incident footers stripped: what the cells
   actually say, independent of how the trouble is footnoted *)
let render_body row =
  let row =
    { row with
      E.br_cells =
        List.map (fun c -> { c with E.c_incidents = [] }) row.E.br_cells }
  in
  Fmt.str "%a%a" E.pp_table_6_2 [ row ] E.pp_table_6_3 [ row ]

let run_store_row ?store ?plan () =
  E.run_benchmark
    ~ctx:(Helpers.ctx ?store ?plan ())
    ~versions:store_versions ~jobs:1 (iir ())

let row_has_incident ~sub row =
  List.exists
    (fun (c : E.cell) ->
      List.exists
        (fun d -> Helpers.contains ~sub (Diag.to_string d))
        c.E.c_incidents)
    row.E.br_cells

(* A fault on the cached-artifact read path — injected raise or
   injected bit rot — is a miss plus an incident: the cell recomputes
   to the same values it had cold, never serves the poisoned bytes,
   and never backtraces. *)
let test_store_read_fault_recomputes () =
  let baseline = render_body (run_store_row ()) in
  List.iter
    (fun (plan, expect) ->
      with_fresh_store (fun store ->
          let cold = run_store_row ~store () in
          Alcotest.(check string)
            (plan ^ ": cold run matches the storeless baseline") baseline
            (render_body cold);
          let warm = run_store_row ~store ~plan () in
          Alcotest.(check string)
            (plan ^ ": recomputed cells byte-identical") baseline
            (render_body warm);
          Alcotest.(check bool)
            (plan ^ ": incident says recomputing") true
            (row_has_incident ~sub:"recomputing" warm);
          Alcotest.(check bool)
            (plan ^ ": incident names the cause") true
            (row_has_incident ~sub:expect warm)))
    [ ("store.read=schedule:raise:1", "injected fault at site store.read");
      ("store.read=schedule:corrupt:1", "checksum mismatch") ]

(* An injected write failure degrades to compute-without-caching: the
   cells are untouched, the failure is on record. *)
let test_store_write_fault_degrades () =
  let baseline = render_body (run_store_row ()) in
  with_fresh_store (fun store ->
      let row =
        run_store_row ~store ~plan:"store.write=schedule:raise:1" ()
      in
      Alcotest.(check string) "cells byte-identical" baseline (render_body row);
      Alcotest.(check bool) "write failure is an incident" true
        (row_has_incident ~sub:"write failed" row))

(* Corrupt-on-write poisons the entry on disk under a truthful header;
   the next (clean) run detects the checksum mismatch, recomputes, and
   footnotes the incident — a wrong cached artifact never reaches a
   table cell. *)
let test_store_poisoned_entry_recovers () =
  let baseline = render_body (run_store_row ()) in
  with_fresh_store (fun store ->
      let cold =
        run_store_row ~store ~plan:"store.write=schedule:corrupt:1" ()
      in
      Alcotest.(check string) "poisoning is invisible at write time" baseline
        (render_body cold);
      let warm = run_store_row ~store () in
      Alcotest.(check string) "recomputed cells byte-identical" baseline
        (render_body warm);
      Alcotest.(check bool) "poison detected as an incident" true
        (row_has_incident ~sub:"checksum mismatch" warm))

(* --- clean runs are byte-identical, validation on or off ------------- *)

let test_validate_off_on_byte_identical () =
  let versions = [ N.Original; N.Squashed 2 ] in
  let render validate =
    let row =
      E.run_benchmark ~verify:true ~validate ~versions ~jobs:1 (iir ())
    in
    Fmt.str "%a%a" E.pp_table_6_2 [ row ] E.pp_table_6_3 [ row ]
  in
  Alcotest.(check string)
    "identical tables" (render false) (render true)

(* --- the one fan-out: a pool task that gives up is one task skip --- *)

(* [parallel.task=N:raise:1]: the task at input index N fails in the
   pool itself.  Table 6.2 rows and plans both show exactly that one
   [error[task]] skip; every other row is the clean run's. *)

let task_diag (d : Diag.t) = String.equal d.Diag.d_pass "task"

let check_task_diag (d : Diag.t) =
  let m = Diag.to_string d in
  Alcotest.(check string) "an error[task] diagnostic" "error[task]"
    (String.sub m 0 (min 11 (String.length m)))

let test_task_failure_benchmark () =
  let b = iir () in
  let clean = E.run_benchmark ~verify:true ~jobs:2 b in
  let faulted =
    E.run_benchmark ~ctx:(faulty "parallel.task=3:raise:1") ~verify:true
      ~jobs:2 b
  in
  let failed = List.nth N.paper_versions 3 in
  (match List.filter (fun s -> task_diag s.E.s_diag) faulted.E.br_skipped with
  | [ s ] ->
    Alcotest.(check string) "the failed task's version"
      (N.version_name failed) (N.version_name s.E.s_version);
    check_task_diag s.E.s_diag
  | skips ->
    Alcotest.failf "expected one task skip, got %d" (List.length skips));
  Alcotest.(check bool) "other skips are the clean run's" true
    (List.filter (fun s -> not (task_diag s.E.s_diag)) faulted.E.br_skipped
    = clean.E.br_skipped);
  Alcotest.(check bool) "other cells are the clean run's" true
    (faulted.E.br_cells
    = List.filter (fun c -> c.E.c_version <> failed) clean.E.br_cells)

let test_task_failure_plan () =
  let b = iir () in
  let plan ?ctx () =
    P.plan ?ctx ~jobs:2 b.R.b_program
      ~outer_index:b.R.b_outer_index ~inner_index:b.R.b_inner_index
      ~benchmark:b.R.b_name
  in
  let clean = plan () in
  let faulted = plan ~ctx:(faulty "parallel.task=2:raise:1") () in
  let failed = (List.nth (P.candidates ()) 2).P.c_label in
  let task_row (r : P.row) =
    match r.P.r_outcome with Error d -> task_diag d | Ok _ -> false
  in
  (match List.filter task_row faulted.P.p_rows with
  | [ { P.r_candidate; r_outcome = Error d; _ } ] ->
    Alcotest.(check string) "the failed task's candidate" failed
      r_candidate.P.c_label;
    check_task_diag d
  | rows -> Alcotest.failf "expected one task skip, got %d" (List.length rows));
  let others (p : P.plan) =
    List.filter
      (fun (r : P.row) -> not (String.equal r.P.r_candidate.P.c_label failed))
      p.P.p_rows
  in
  Alcotest.(check bool) "other rows are the clean run's" true
    (others faulted = others clean)

(* A fault pinned to the first candidate of a squash group fires where
   the group is evaluated, once, so it skips every candidate that
   shares the program: on IIR, the hoist, if-conversion and
   scalarization prefixes leave the kernel as squash(4) sees it. *)
let test_group_fault_plan () =
  let b = iir () in
  let plan ?ctx () =
    P.plan ?ctx ~jobs:2 b.R.b_program
      ~outer_index:b.R.b_outer_index ~inner_index:b.R.b_inner_index
      ~benchmark:b.R.b_name
  in
  let clean = plan () in
  let faulted =
    plan ~ctx:(faulty "rewrite.apply=IIR/squash(4):raise:1") ()
  in
  let group =
    [ "hoist+squash(4)"; "ifconv+squash(4)"; "scalarize+squash(4)";
      "squash(4)" ]
  in
  let injected (r : P.row) =
    match r.P.r_outcome with
    | Error d ->
      Helpers.contains ~sub:"injected fault at site rewrite.apply"
        (Diag.to_string d)
    | Ok _ -> false
  in
  Alcotest.(check (list string))
    "the group's rows are skipped" group
    (List.sort compare
       (List.filter_map
          (fun (r : P.row) ->
            if injected r then Some r.P.r_candidate.P.c_label else None)
          faulted.P.p_rows));
  let others (p : P.plan) =
    List.filter
      (fun (r : P.row) -> not (List.mem r.P.r_candidate.P.c_label group))
      p.P.p_rows
  in
  Alcotest.(check bool) "other rows are the clean run's" true
    (others faulted = others clean)

let suite =
  [ QCheck_alcotest.to_alcotest test_injection_never_escapes;
    Alcotest.test_case "injected faults render by site" `Quick
      test_injected_fault_renders;
    Alcotest.test_case "validated_apply: clean pass unchanged" `Quick
      test_validated_apply_clean;
    Alcotest.test_case "validated_apply: corruption degrades" `Quick
      test_validated_apply_catches_corruption;
    Alcotest.test_case "unvalidated corruption propagates" `Quick
      test_unvalidated_corruption_propagates;
    Alcotest.test_case "stuck verification degrades the cell" `Quick
      test_stuck_verification_degrades_cell;
    Alcotest.test_case "store.read fault recomputes with incident" `Quick
      test_store_read_fault_recomputes;
    Alcotest.test_case "store.write fault degrades to uncached" `Quick
      test_store_write_fault_degrades;
    Alcotest.test_case "poisoned store entry recovers" `Quick
      test_store_poisoned_entry_recovers;
    Alcotest.test_case "validate on/off byte-identical when clean" `Quick
      test_validate_off_on_byte_identical;
    Alcotest.test_case "task failure: one skip in a benchmark row" `Quick
      test_task_failure_benchmark;
    Alcotest.test_case "task failure: one skip in a plan" `Quick
      test_task_failure_plan;
    Alcotest.test_case "squash fault skips the candidate's group" `Quick
      test_group_fault_plan ]
