(* The hardware estimator and the Nimble driver: monotonicity and
   conservation properties the paper's analysis (§4.4) predicts, plus
   Table 6.2/6.3 sanity. *)

module S = Uas_bench_suite
module N = Uas_core.Nimble
module E = Uas_core.Experiments
module Hw = Uas_hw
module Estimate = Uas_hw.Estimate

(* a small fixed benchmark set reused across cases *)
let small_suite () =
  [ S.Registry.skipjack_mem ~m:16 ();
    S.Registry.skipjack_hw ~m:16 ();
    S.Registry.des_mem ~m:16 ();
    S.Registry.des_hw ~m:16 ();
    S.Registry.iir ~channels:16 () ]

(* the sweep is expensive (10 transforms + schedules per benchmark):
   compute it lazily once per benchmark name *)
let sweep_cache : (string, E.cell list) Hashtbl.t = Hashtbl.create 8

let sweep b =
  match Hashtbl.find_opt sweep_cache b.S.Registry.b_name with
  | Some cells -> cells
  | None ->
    let cells = (E.run_benchmark ~verify:false b).E.br_cells in
    Hashtbl.replace sweep_cache b.S.Registry.b_name cells;
    cells

let small_suite =
  let cached = lazy (small_suite ()) in
  fun () -> Lazy.force cached

let report_of cells version =
  match List.find_opt (fun c -> c.E.c_version = version) cells with
  | Some c -> c.E.c_report
  | None -> Alcotest.failf "missing version %s" (N.version_name version)

let test_pipelined_not_slower_than_original () =
  List.iter
    (fun b ->
      let rows = sweep b in
      let orig = report_of rows N.Original in
      let pipe = report_of rows N.Pipelined in
      Alcotest.(check bool)
        (b.S.Registry.b_name ^ " pipelined II <= original II")
        true
        (pipe.Estimate.r_ii <= orig.Estimate.r_ii))
    (small_suite ())

let test_squash_keeps_operators () =
  (* §4.4: unroll-and-squash adds only registers *)
  List.iter
    (fun b ->
      let rows = sweep b in
      let orig = report_of rows N.Original in
      List.iter
        (fun ds ->
          let r = report_of rows (N.Squashed ds) in
          (* §4.4: only registers are added — plus at most the single
             adder that advances the data set's private inner counter *)
          Alcotest.(check bool)
            (Printf.sprintf "%s squash(%d) operators" b.S.Registry.b_name ds)
            true
            (r.Estimate.r_operators >= orig.Estimate.r_operators
            && r.Estimate.r_operators <= orig.Estimate.r_operators + 1);
          Alcotest.(check int)
            (Printf.sprintf "%s squash(%d) memory refs" b.S.Registry.b_name ds)
            orig.Estimate.r_mem_refs r.Estimate.r_mem_refs)
        [ 2; 4; 8; 16 ])
    (small_suite ())

let test_jam_scales_operators () =
  List.iter
    (fun b ->
      let rows = sweep b in
      let orig = report_of rows N.Original in
      List.iter
        (fun ds ->
          let r = report_of rows (N.Jammed ds) in
          Alcotest.(check int)
            (Printf.sprintf "%s jam(%d) operators" b.S.Registry.b_name ds)
            (ds * orig.Estimate.r_operators)
            r.Estimate.r_operators;
          Alcotest.(check int)
            (Printf.sprintf "%s jam(%d) memory refs" b.S.Registry.b_name ds)
            (ds * orig.Estimate.r_mem_refs)
            r.Estimate.r_mem_refs)
        [ 2; 4; 8 ])
    (small_suite ())

let test_squash_ii_monotone () =
  (* more data sets never increase the initiation interval *)
  List.iter
    (fun b ->
      let rows = sweep b in
      let iis =
        List.map
          (fun ds -> (report_of rows (N.Squashed ds)).Estimate.r_ii)
          [ 2; 4; 8; 16 ]
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a >= b && mono rest
        | _ -> true
      in
      Alcotest.(check bool)
        (b.S.Registry.b_name ^ " squash II monotone non-increasing")
        true (mono iis))
    (small_suite ())

let test_squash_ii_floor_is_memory_bound () =
  (* §6.3: the initial memory reference count bounds the squashed II
     from below *)
  List.iter
    (fun b ->
      let rows = sweep b in
      let orig = report_of rows N.Original in
      let floor = (orig.Estimate.r_mem_refs + 1) / 2 in
      List.iter
        (fun ds ->
          let r = report_of rows (N.Squashed ds) in
          Alcotest.(check bool)
            (Printf.sprintf "%s squash(%d) II >= mem floor"
               b.S.Registry.b_name ds)
            true
            (r.Estimate.r_ii >= max 1 floor))
        [ 2; 4; 8; 16 ])
    (small_suite ())

let test_total_work_conserved () =
  (* §4.4: the total iteration count of the squashed nest stays ~M*N:
     M/DS * (DS*N - DS + 1) <= M*N, within one outer sweep *)
  let b = S.Registry.skipjack_hw ~m:16 () in
  let rows = sweep b in
  let orig = report_of rows N.Original in
  List.iter
    (fun ds ->
      let r = report_of rows (N.Squashed ds) in
      Alcotest.(check bool) "work within bounds" true
        (r.Estimate.r_kernel_iterations <= orig.Estimate.r_kernel_iterations
        && r.Estimate.r_kernel_iterations
           > orig.Estimate.r_kernel_iterations * (ds - 1) / ds))
    [ 2; 4; 8 ]

let test_area_decomposition () =
  List.iter
    (fun b ->
      List.iter
        (fun c ->
          let r = c.E.c_report in
          Alcotest.(check int)
            (r.Estimate.r_name ^ " area = operators + registers")
            (r.Estimate.r_operator_rows + r.Estimate.r_registers)
            r.Estimate.r_area_rows)
        (sweep b))
    (small_suite ())

let test_register_packing_target () =
  (* the packed-register target shrinks area but touches nothing else *)
  let b = S.Registry.skipjack_hw ~m:16 () in
  let dflt = Helpers.report b (N.Squashed 8) in
  let packed =
    Helpers.report ~target:Hw.Datapath.packed_registers b (N.Squashed 8)
  in
  Alcotest.(check int) "same II" dflt.Estimate.r_ii packed.Estimate.r_ii;
  Alcotest.(check bool) "smaller area" true
    (packed.Estimate.r_area_rows < dflt.Estimate.r_area_rows)

let test_port_count_ablation () =
  (* fewer memory ports raise (or keep) the II of memory-bound kernels *)
  let b = S.Registry.des_mem ~m:16 () in
  let ii target = (Helpers.report ~target b (N.Squashed 8)).Estimate.r_ii in
  let one = ii Hw.Datapath.single_port in
  let two = ii Hw.Datapath.default in
  let four = ii Hw.Datapath.quad_port in
  Alcotest.(check bool) "1 port slowest" true (one >= two);
  Alcotest.(check bool) "4 ports fastest" true (four <= two)

let test_select_best_prefers_efficiency () =
  let b = S.Registry.skipjack_hw ~m:16 () in
  let rows = List.map (fun c -> (c.E.c_version, (), c.E.c_report)) (sweep b) in
  match N.select_best rows with
  | None -> Alcotest.fail "no selection"
  | Some (v, _, _) ->
    Alcotest.(check bool)
      ("selected " ^ N.version_name v ^ " is a squash version")
      true
      (match v with N.Squashed _ -> true | _ -> false)

let test_normalized_baseline_is_one () =
  let row =
    E.run_benchmark ~verify:false (S.Registry.skipjack_hw ~m:16 ())
  in
  let n =
    List.find (fun n -> n.E.n_version = N.Original) (E.normalize row)
  in
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0 n.E.n_speedup;
  Alcotest.(check (float 1e-9)) "area 1" 1.0 n.E.n_area;
  Alcotest.(check (float 1e-9)) "efficiency 1" 1.0 n.E.n_efficiency

let test_operator_share_drops_with_squash () =
  (* Figure 6.4: operators as % of area fall sharply for squash *)
  let row =
    E.run_benchmark ~verify:false (S.Registry.des_hw ~m:16 ())
  in
  let norm = E.normalize row in
  let share v =
    (List.find (fun n -> n.E.n_version = v) norm).E.n_operator_share
  in
  Alcotest.(check bool) "squash(16) < original" true
    (share (N.Squashed 16) < share N.Original);
  Alcotest.(check bool) "squash(16) < squash(2)" true
    (share (N.Squashed 16) < share (N.Squashed 2))

let test_figure_2_4_full_utilization () =
  let timelines = E.figure_2_4 ~cycles:8 in
  let squash = List.assoc "unroll-and-squash(2)" timelines in
  let busy =
    List.filter (fun c -> c.E.u_data_set <> None) squash |> List.length
  in
  (* only g's first slot idles while the pipe fills *)
  Alcotest.(check int) "squash busy slots" (List.length squash - 1) busy;
  let jam = List.assoc "unroll-and-jam(2)" timelines in
  let jam_busy =
    List.filter (fun c -> c.E.u_data_set <> None) jam |> List.length
  in
  (* jam leaves half the slots idle *)
  Alcotest.(check int) "jam busy slots" (List.length jam / 2) jam_busy

let suite =
  [ Alcotest.test_case "pipelined <= original" `Slow
      test_pipelined_not_slower_than_original;
    Alcotest.test_case "squash keeps operators" `Slow
      test_squash_keeps_operators;
    Alcotest.test_case "jam scales operators" `Slow test_jam_scales_operators;
    Alcotest.test_case "squash II monotone" `Slow test_squash_ii_monotone;
    Alcotest.test_case "squash II memory floor" `Slow
      test_squash_ii_floor_is_memory_bound;
    Alcotest.test_case "total work conserved" `Slow test_total_work_conserved;
    Alcotest.test_case "area decomposition" `Slow test_area_decomposition;
    Alcotest.test_case "register packing target" `Quick
      test_register_packing_target;
    Alcotest.test_case "memory port ablation" `Quick test_port_count_ablation;
    Alcotest.test_case "kernel selection" `Quick
      test_select_best_prefers_efficiency;
    Alcotest.test_case "normalized baseline" `Quick
      test_normalized_baseline_is_one;
    Alcotest.test_case "operator share drops" `Quick
      test_operator_share_drops_with_squash;
    Alcotest.test_case "figure 2.4 utilization" `Quick
      test_figure_2_4_full_utilization ]
