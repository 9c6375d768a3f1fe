(* Encrypt with a squashed pipeline, decrypt with a squashed pipeline,
   and get the message back: the end-to-end story on real ciphers with
   every kernel transformed.

   Run with:  dune exec examples/decrypt_roundtrip.exe *)

open Uas_ir
module S = Uas_bench_suite

let message = "The quick brown fox jumps over the lazy dog 0123456789!"

let words_of_string s =
  let padded =
    let rem = String.length s mod 8 in
    if rem = 0 then s else s ^ String.make (8 - rem) ' '
  in
  Array.init
    (String.length padded / 2)
    (fun k ->
      (Char.code padded.[2 * k] lsl 8) lor Char.code padded.[(2 * k) + 1])

let string_of_words (ws : int array) =
  String.init
    (2 * Array.length ws)
    (fun k ->
      let w = ws.(k / 2) in
      Char.chr (if k mod 2 = 0 then (w lsr 8) land 0xff else w land 0xff))

let out_words r =
  Array.map
    (fun v -> match v with Types.VInt x -> x | _ -> 0)
    (List.assoc "data_out" r.Interp.outputs)

let squash_by p ds =
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  match Uas_transform.Squash.apply p nest ~ds with
  | Ok out -> out.Uas_transform.Squash.program
  | Error e -> Fmt.failwith "squash: %a" Uas_transform.Squash.pp_error e

let () =
  let key = [| 0x31; 0x41; 0x59; 0x26; 0x53; 0x58; 0x97; 0x93; 0x23; 0x84 |] in
  let words = words_of_string message in
  let blocks = Array.length words / 4 in
  Fmt.pr "message: %S (%d blocks)@." message blocks;

  (* encrypt through a squash(4) pipeline *)
  let enc = squash_by (S.Skipjack.skipjack_hw ~m:blocks ~key) 4 in
  let cipher =
    out_words (Interp.run enc (S.Skipjack.workload_hw words))
  in
  Fmt.pr "ciphertext (squash(4) encryptor): %s...@."
    (String.concat " "
       (List.filteri (fun i _ -> i < 6)
          (List.map (Printf.sprintf "%04x") (Array.to_list cipher))));

  (* decrypt through a squash(4) pipeline of the inverse cipher *)
  let dec = squash_by (S.Skipjack.skipjack_hw_decrypt ~m:blocks ~key) 4 in
  let plain =
    out_words (Interp.run dec (S.Skipjack.workload_hw cipher))
  in
  let recovered = string_of_words plain in
  Fmt.pr "recovered: %S@." (String.sub recovered 0 (String.length message));
  Fmt.pr "round-trip exact: %b@."
    (String.sub recovered 0 (String.length message) = message);

  (* hardware estimates for both pipelines, through the squash(4)
     version's pass pipeline *)
  let report name p =
    match
      Uas_core.Nimble.run_version_cu p ~outer_index:"i" ~inner_index:"j"
        (Uas_core.Nimble.Squashed 4)
    with
    | Ok (_, _, r) ->
      Fmt.pr "%a@." Uas_hw.Estimate.pp_report
        { r with Uas_hw.Estimate.r_name = name }
    | Error d -> failwith (Uas_pass.Diag.to_string d)
  in
  report "enc squash(4)" (S.Skipjack.skipjack_hw ~m:blocks ~key);
  report "dec squash(4)" (S.Skipjack.skipjack_hw_decrypt ~m:blocks ~key)
