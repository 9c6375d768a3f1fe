(* DES and the memory wall: with the SP-boxes in memory, unroll-and-jam
   multiplies the number of table lookups per cycle and saturates the
   two memory ports, while unroll-and-squash keeps the original lookup
   count — the crossover the paper's §6.3 analysis describes.

   Run with:  dune exec examples/des_pipeline.exe *)

module S = Uas_bench_suite
module N = Uas_core.Nimble

let () =
  let m = 16 in
  let key64 = 0x0123456789ABCDEFL in
  let halves = S.Des.random_halves ~seed:7 (2 * m) in
  let program = S.Des.des_mem ~m in
  let workload = S.Des.workload_mem ~key64 halves in

  (* correctness first: the IR core agrees with the host DES *)
  let r = Uas_ir.Interp.run program workload in
  let got = List.assoc "data_out" r.Uas_ir.Interp.outputs in
  let expected =
    S.Des.encrypt_stream ~subkeys:(S.Des.key_schedule key64) halves
  in
  Fmt.pr "DES core matches host: %b@.@."
    (Array.for_all2 (fun a b -> a = Uas_ir.Types.VInt b) got expected);

  (* II as a function of the unroll factor: squash stays at the memory
     floor, jam grows with it *)
  let factors = [ 2; 4; 8; 16 ] in
  let ii_of program version =
    match N.run_version_cu program ~outer_index:"i" ~inner_index:"j" version with
    | Ok (_, _, r) -> r.Uas_hw.Estimate.r_ii
    | Error d -> failwith (Uas_pass.Diag.to_string d)
  in
  let ii = ii_of program in
  Fmt.pr "%-8s %10s %10s@." "factor" "squash II" "jam II";
  List.iter
    (fun ds ->
      Fmt.pr "%-8d %10d %10d@." ds (ii (N.Squashed ds)) (ii (N.Jammed ds)))
    factors;
  Fmt.pr "@.(9 memory references per round; 2 ports -> squash floors at 5,@.";
  Fmt.pr " jam needs ceil(9*DS/2) cycles just for the lookups)@.";

  (* and the same sweep on the ROM-based variant, where jam stays flat *)
  let program_hw = S.Des.des_hw ~m ~key64 in
  let ii_hw = ii_of program_hw in
  Fmt.pr "@.DES-hw (S-boxes in ROM): no memory pressure@.";
  Fmt.pr "%-8s %10s %10s@." "factor" "squash II" "jam II";
  List.iter
    (fun ds ->
      Fmt.pr "%-8d %10d %10d@." ds (ii_hw (N.Squashed ds)) (ii_hw (N.Jammed ds)))
    factors
