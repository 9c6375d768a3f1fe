(* Differential hardening of the parallel sweep engine: random loop
   nests (2-deep and 3-deep) where (1) every generated version must
   compute the exact outputs of the original in the interpreter, and
   (2) the parallel sweep must equal the sequential sweep
   cell-for-cell.  Parallel
   correctness claims are cheap to break silently — a pass that grows
   shared mutable state, or a pool that reorders results, changes
   nothing on the happy path until it flips a Table 6.2 cell — so this
   suite is the contract.

   Seeds: QCheck respects QCHECK_SEED; `dune runtest` pins a default
   via the test stanza so CI is reproducible. *)

open Uas_ir
module N = Uas_core.Nimble
module E = Uas_core.Experiments
module R = Uas_bench_suite.Registry

(* the versions of the satellite spec: cheap enough to interpreter-
   replay per random program, diverse enough to cover squash slicing,
   rotation and jam duplication *)
let diff_versions = [ N.Original; N.Squashed 2; N.Squashed 4; N.Jammed 2 ]

let test_qcheck_versions_bit_identical =
  QCheck.Test.make
    ~name:"interp outputs bit-identical across original/squash/jam" ~count:40
    Helpers.arbitrary_diff_nest_program
    (fun p ->
      let w = Helpers.random_workload ~seed:11 p in
      let reference = Interp.run p w in
      List.iter
        (fun v ->
          match Helpers.build p ~outer_index:"i" ~inner_index:"j" v with
          | Error _ -> ()  (* illegal at this factor: dropped, as in sweep *)
          | Ok q -> (
            let r = Interp.run q w in
            match Interp.diff_outputs reference r with
            | None -> ()
            | Some d ->
              QCheck.Test.fail_reportf "%s diverges: %s@\n%a"
                (N.version_name v) d Pp.pp_program q))
        diff_versions;
      true)

(* One verified sweep of a random nest on a pool of [jobs] domains:
   every cell is replayed against the original program's outputs. *)
let sweep ~versions ~inner_index ~jobs p =
  E.run_benchmark ~verify:true ~versions ~jobs
    (Helpers.benchmark p ~outer_index:"i" ~inner_index)

(* cell for cell: version, report, verification and incidents; skip
   for skip: version and diagnostic *)
let rows_equal (r1 : E.bench_row) (r2 : E.bench_row) =
  r1.E.br_cells = r2.E.br_cells && r1.E.br_skipped = r2.E.br_skipped

let test_qcheck_parallel_sweep_equals_sequential =
  QCheck.Test.make ~name:"parallel sweep = sequential sweep (cell-for-cell)"
    ~count:40 Helpers.arbitrary_diff_nest_program
    (fun p ->
      let sweep = sweep ~versions:diff_versions ~inner_index:"j" p in
      rows_equal (sweep ~jobs:1) (sweep ~jobs:4))

(* the real hot path: a full paper-version benchmark row, verified,
   must come out cell-for-cell identical from a 1-domain and a 4-domain
   pool (smaller block count than Table 6.2 to keep the replay quick) *)
let test_run_benchmark_parallel_equals_sequential () =
  let b = R.skipjack_mem ~m:8 () in
  let row jobs = (E.run_benchmark ~verify:true ~jobs b).E.br_cells in
  let seq = row 1 and par = row 4 in
  Alcotest.(check int) "cell count" (List.length seq) (List.length par);
  List.iter2
    (fun (c1 : E.cell) (c2 : E.cell) ->
      Alcotest.(check string)
        "version"
        (N.version_name c1.E.c_version)
        (N.version_name c2.E.c_version);
      Alcotest.(check bool)
        (Printf.sprintf "report %s identical" (N.version_name c1.E.c_version))
        true
        (c1.E.c_report = c2.E.c_report);
      Alcotest.(check bool) "verified flag" c1.E.c_verified c2.E.c_verified)
    seq par

(* failures inside pool workers must surface as diagnostics, not
   vanish into a domain: an unknown outer index comes back as a skipped
   cell from a parallel sweep just as it does sequentially *)
let test_sweep_failure_surfaces () =
  let b =
    Helpers.benchmark (Helpers.fg_loop ~m:4 ~n:4) ~outer_index:"nope"
      ~inner_index:"j"
  in
  let attempt jobs =
    match E.run_benchmark ~versions:[ N.Squashed 2 ] ~jobs b with
    | { E.br_cells = []; br_skipped = [ { E.s_version = N.Squashed 2; s_diag = d } ]; _ } ->
      d.Uas_pass.Diag.d_pass = "loop-nest"
      && String.starts_with ~prefix:"error[loop-nest]"
           (Uas_pass.Diag.to_string d)
    | _ -> false
  in
  Alcotest.(check bool) "sequential skips with diagnostic" true (attempt 1);
  Alcotest.(check bool) "parallel skips with diagnostic" true (attempt 4)

(* --- the 3-deep generator: depth-general versions and rewrites ----- *)

(* the deep-nest version set: flatten the (i, j) pair, then squash the
   flat loop against k.  On the ~third of generated programs where an
   i-level band makes the pair imperfect, flatten must reject cleanly
   (a dropped version, like an illegal factor) — never diverge. *)
let diff_versions3 = [ N.Original; N.Flat_squashed 2; N.Flat_squashed 4 ]

let test_qcheck_nest3_versions_bit_identical =
  QCheck.Test.make
    ~name:"interp outputs bit-identical across original/flatten+squash"
    ~count:40 Helpers.arbitrary_nest3_program
    (fun p ->
      let w = Helpers.random_workload ~seed:13 p in
      let reference = Interp.run p w in
      List.iter
        (fun v ->
          match Helpers.build p ~outer_index:"i" ~inner_index:"k" v with
          | Error _ -> ()
          | Ok q -> (
            let r = Interp.run q w in
            match Interp.diff_outputs reference r with
            | None -> ()
            | Some d ->
              QCheck.Test.fail_reportf "%s diverges: %s@\n%a"
                (N.version_name v) d Pp.pp_program q))
        diff_versions3;
      true)

(* every registered rewrite, pointed at every level of a random 3-deep
   nest, must come back Ok or Error from Pass.run — a raw exception out
   of a depth-general code path is the regression this guards *)
let test_qcheck_nest3_no_exception_escapes =
  let module Rw = Uas_transform.Rewrite in
  let module Pass = Uas_pass.Pass in
  let module Cu = Uas_pass.Cu in
  QCheck.Test.make
    ~name:"no rewrite escapes Pass.run on a 3-deep nest" ~count:20
    Helpers.arbitrary_nest3_program
    (fun p ->
      List.iter
        (fun target ->
          let params = { Rw.default_params with Rw.target = Some target } in
          List.iter
            (fun rw ->
              let cu = Cu.make p ~outer_index:"i" ~inner_index:"k" in
              match Pass.run cu [ Rw.to_pass ~params rw ] with
              | Ok _ | Error _ -> ()
              | exception e ->
                QCheck.Test.fail_reportf
                  "%s at %s: exception escaped Pass.run: %s@\n%a" (Rw.name rw)
                  target (Printexc.to_string e) Pp.pp_program p)
            (Rw.all ()))
        [ "i"; "j"; "k"; "ghost" ];
      true)

let test_qcheck_nest3_parallel_sweep_equals_sequential =
  QCheck.Test.make
    ~name:"3-deep parallel sweep = sequential sweep (cell-for-cell)"
    ~count:20 Helpers.arbitrary_nest3_program
    (fun p ->
      let sweep = sweep ~versions:diff_versions3 ~inner_index:"k" p in
      rows_equal (sweep ~jobs:1) (sweep ~jobs:4))

let suite =
  [ QCheck_alcotest.to_alcotest test_qcheck_versions_bit_identical;
    QCheck_alcotest.to_alcotest test_qcheck_nest3_versions_bit_identical;
    QCheck_alcotest.to_alcotest test_qcheck_nest3_no_exception_escapes;
    QCheck_alcotest.to_alcotest test_qcheck_nest3_parallel_sweep_equals_sequential;
    QCheck_alcotest.to_alcotest test_qcheck_parallel_sweep_equals_sequential;
    Alcotest.test_case "run_benchmark: 1 domain = 4 domains" `Slow
      test_run_benchmark_parallel_equals_sequential;
    Alcotest.test_case "worker failures surface as diagnostics" `Quick
      test_sweep_failure_surfaces ]
