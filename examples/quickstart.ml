(* Quickstart: write a nested loop in the builder DSL, unroll-and-squash
   it, check it still computes the same thing, and compare the hardware
   estimates.

   Run with:  dune exec examples/quickstart.exe *)

open Uas_ir
module B = Builder

let () =
  (* The Figure 2.1 pattern: an outer loop over independent data blocks
     and an inner loop whose body carries a value between iterations
     (b depends on a, next a depends on b — no inner pipelining). *)
  let m = 16 and n = 8 in
  let program =
    B.program "quickstart"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint);
          ("b", Types.Tint) ]
      ~arrays:[ B.input "data_in" m; B.output "data_out" m ]
      [ B.for_ "i" ~hi:(B.int m)
          [ B.("a" <-- load "data_in" (v "i"));
            B.for_ "j" ~hi:(B.int n)
              [ B.("b" <-- band (v "a" * int 5 + int 1) (int 65535));
                B.("a" <-- bxor (v "b") (shr (v "b") (int 3))) ];
            B.store "data_out" (B.v "i") (B.v "a") ]
      ]
  in
  Fmt.pr "--- the kernel ---@.%a@." Pp.pp_program program;

  (* 1. find the nest and check the transformation is legal at DS=4 *)
  let nest = Uas_analysis.Loop_nest.find_by_outer_index program "i" in
  let verdict = Uas_analysis.Legality.check nest ~ds:4 in
  Fmt.pr "legality at DS=4: %a@." Uas_analysis.Legality.pp_verdict verdict;

  (* 2. apply unroll-and-squash by 4 *)
  let squashed =
    match Uas_transform.Squash.apply program nest ~ds:4 with
    | Ok out -> out
    | Error e -> Fmt.failwith "squash: %a" Uas_transform.Squash.pp_error e
  in
  Fmt.pr "@.--- unroll-and-squash by 4 ---@.%a@." Pp.pp_program
    squashed.Uas_transform.Squash.program;

  (* 3. the transformed program is still ordinary software: run both on
     the same inputs and compare outputs *)
  let workload =
    Interp.workload
      ~arrays:
        [ ("data_in", Array.init m (fun k -> Types.VInt (k * 37 + 11))) ]
      ()
  in
  let r0 = Interp.run program workload in
  let r1 = Interp.run squashed.Uas_transform.Squash.program workload in
  Fmt.pr "@.outputs identical: %b@." (Interp.outputs_equal r0 r1);

  (* 4. hardware estimates, through each version's pass pipeline
     (transform, DFG build, schedule, estimate): the squashed kernel
     pipelines down to a fraction of the original initiation interval,
     for only registers *)
  let estimate version =
    match
      Uas_core.Nimble.run_version_cu program ~outer_index:"i" ~inner_index:"j"
        version
    with
    | Ok (_, _, r) -> r
    | Error d -> failwith (Uas_pass.Diag.to_string d)
  in
  let original = estimate Uas_core.Nimble.Original in
  let squashed_est = estimate (Uas_core.Nimble.Squashed 4) in
  Fmt.pr "@.%a@.%a@." Uas_hw.Estimate.pp_report original
    Uas_hw.Estimate.pp_report squashed_est;
  let speedup =
    float_of_int original.Uas_hw.Estimate.r_total_cycles
    /. float_of_int squashed_est.Uas_hw.Estimate.r_total_cycles
  in
  let area =
    float_of_int squashed_est.Uas_hw.Estimate.r_area_rows
    /. float_of_int original.Uas_hw.Estimate.r_area_rows
  in
  Fmt.pr "speedup %.2fx for %.2fx area (efficiency %.2f)@." speedup area
    (speedup /. area)
