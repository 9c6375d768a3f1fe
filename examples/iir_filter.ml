(* Multi-channel IIR filtering: the floating-point benchmark of §6.2.
   Shows why unroll-and-squash shines on long FP recurrences — the
   efficiency keeps growing with the unroll factor (the Figure 6.3
   discussion) — and that the squashed filter bank is still a correct
   software filter.

   Run with:  dune exec examples/iir_filter.exe *)

module S = Uas_bench_suite
module N = Uas_core.Nimble

let () =
  let channels = 16 in
  (* a noisy multi-channel signal: channel c carries a tone at a
     c-dependent frequency plus deterministic "noise" *)
  let signal =
    Array.init
      (channels * S.Iir.points_per_channel)
      (fun k ->
        let c = k / S.Iir.points_per_channel in
        let t = float_of_int (k mod S.Iir.points_per_channel) in
        sin (t *. (0.1 +. (0.02 *. float_of_int c)))
        +. (0.25 *. sin (t *. 2.9)))
  in
  let program = S.Iir.iir ~channels in
  let workload = S.Iir.workload signal in

  (* filter through the original and through squash(8); identical
     bit-for-bit because the transformation only reorders independent
     channels *)
  let nest = Uas_analysis.Loop_nest.find_by_outer_index program "i" in
  let squashed =
    match Uas_transform.Squash.apply program nest ~ds:8 with
    | Ok out -> out
    | Error e -> Fmt.failwith "squash: %a" Uas_transform.Squash.pp_error e
  in
  let r0 = Uas_ir.Interp.run program workload in
  let r1 = Uas_ir.Interp.run squashed.Uas_transform.Squash.program workload in
  Fmt.pr "squash(8) output identical: %b@."
    (Uas_ir.Interp.outputs_equal r0 r1);

  (* show a few filtered samples *)
  let out = List.assoc "signal_out" r0.Uas_ir.Interp.outputs in
  Fmt.pr "channel 0, first 6 samples:";
  for k = 0 to 5 do
    match out.(k) with
    | Uas_ir.Types.VFloat x -> Fmt.pr " %+.4f" x
    | _ -> ()
  done;
  Fmt.pr "@.@.";

  (* the FP recurrence: pipelining alone is limited by the biquad
     feedback loop; squash divides it across data sets *)
  let rows =
    List.filter_map
      (fun v ->
        match N.run_version_cu program ~outer_index:"i" ~inner_index:"j" v with
        | Ok (_, built, r) -> Some (v, built, r)
        | Error _ -> None)
      N.paper_versions
  in
  Fmt.pr "%-12s %6s %8s %12s@." "version" "II" "area" "speedup/area";
  let orig_cycles =
    List.find_map
      (fun (v, _, r) ->
        if v = N.Original then Some r.Uas_hw.Estimate.r_total_cycles else None)
      rows
    |> Option.get
  in
  let orig_area =
    List.find_map
      (fun (v, _, r) ->
        if v = N.Original then Some r.Uas_hw.Estimate.r_area_rows else None)
      rows
    |> Option.get
  in
  List.iter
    (fun (v, _, (r : Uas_hw.Estimate.report)) ->
      let speedup =
        float_of_int orig_cycles /. float_of_int r.Uas_hw.Estimate.r_total_cycles
      in
      let area =
        float_of_int r.Uas_hw.Estimate.r_area_rows /. float_of_int orig_area
      in
      Fmt.pr "%-12s %6d %8d %12.2f@." (N.version_name v)
        r.Uas_hw.Estimate.r_ii r.Uas_hw.Estimate.r_area_rows (speedup /. area))
    rows
