(* Skipjack on the full flow: encrypt a real message with the IR
   program, sweep all ten paper versions through the Nimble-style
   driver, and let kernel selection pick the best design.

   Run with:  dune exec examples/skipjack_crypto.exe *)

module S = Uas_bench_suite
module N = Uas_core.Nimble

let message = "Unroll-and-squash pipelines nested loops efficiently, 2001."

(* pack the message into 16-bit words, 4 words (8 bytes) per block *)
let words_of_string s =
  let padded =
    let rem = String.length s mod 8 in
    if rem = 0 then s else s ^ String.make (8 - rem) ' '
  in
  Array.init
    (String.length padded / 2)
    (fun k ->
      (Char.code padded.[2 * k] lsl 8) lor Char.code padded.[(2 * k) + 1])

let () =
  let key = [| 0x00; 0x99; 0x88; 0x77; 0x66; 0x55; 0x44; 0x33; 0x22; 0x11 |] in
  let words = words_of_string message in
  let blocks = Array.length words / 4 in
  Fmt.pr "encrypting %d blocks with Skipjack (hw variant)@." blocks;

  (* the IR program, with the key baked into the ROM *)
  let program = S.Skipjack.skipjack_hw ~m:blocks ~key in
  let r = Uas_ir.Interp.run program (S.Skipjack.workload_hw words) in
  let cipher = List.assoc "data_out" r.Uas_ir.Interp.outputs in
  Fmt.pr "ciphertext (first 8 words):";
  Array.iteri
    (fun k v ->
      if k < 8 then
        match v with Uas_ir.Types.VInt x -> Fmt.pr " %04x" x | _ -> ())
    cipher;
  Fmt.pr "@.";

  (* the host reference agrees *)
  let reference = S.Skipjack.encrypt_stream ~key words in
  let agree =
    Array.for_all2
      (fun a b -> a = Uas_ir.Types.VInt b)
      cipher reference
  in
  Fmt.pr "matches host implementation: %b@.@." agree;

  (* sweep the paper's ten versions and report the estimates *)
  Fmt.pr "%-12s %6s %8s %6s %10s@." "version" "II" "area" "regs" "cycles";
  let rows =
    List.filter_map
      (fun v ->
        match N.run_version_cu program ~outer_index:"i" ~inner_index:"j" v with
        | Ok (_, built, r) -> Some (v, built, r)
        | Error _ -> None)
      N.paper_versions
  in
  List.iter
    (fun (v, _, (r : Uas_hw.Estimate.report)) ->
      Fmt.pr "%-12s %6d %8d %6d %10d@." (N.version_name v)
        r.Uas_hw.Estimate.r_ii r.Uas_hw.Estimate.r_area_rows
        r.Uas_hw.Estimate.r_registers r.Uas_hw.Estimate.r_total_cycles)
    rows;

  (* kernel selection by speedup/area, as the Nimble flow would do *)
  match N.select_best rows with
  | Some (v, _, _) ->
    Fmt.pr "@.kernel selection picks: %s@." (N.version_name v)
  | None -> Fmt.pr "@.no version selected@."
