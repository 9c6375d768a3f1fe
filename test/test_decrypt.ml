(* Decryption: inverse ciphers round-trip with encryption at the host
   level, at the IR level, and under unroll-and-squash. *)

open Uas_ir
module S = Uas_bench_suite

let test_skipjack_host_roundtrip () =
  let key = S.Skipjack.random_key ~seed:21 in
  for t = 0 to 24 do
    let block =
      ( (t * 9941) land 0xffff, (t * 31337) land 0xffff,
        (t * 271) land 0xffff, (t * 65521) land 0xffff )
    in
    let c = S.Skipjack.encrypt_block ~key block in
    if S.Skipjack.decrypt_block ~key c <> block then
      Alcotest.failf "skipjack roundtrip failed at %d" t
  done

let test_skipjack_kat_decrypt () =
  let got =
    S.Skipjack.decrypt_block ~key:S.Skipjack.kat_key
      ( S.Skipjack.kat_ciphertext_words.(0),
        S.Skipjack.kat_ciphertext_words.(1),
        S.Skipjack.kat_ciphertext_words.(2),
        S.Skipjack.kat_ciphertext_words.(3) )
  in
  let w1, w2, w3, w4 = got in
  Alcotest.(check (list int))
    "official vector decrypts"
    (Array.to_list S.Skipjack.kat_plaintext_words)
    [ w1; w2; w3; w4 ]

let test_des_host_roundtrip () =
  let key64 = 0x5B5A57676A56676EL in
  List.iter
    (fun p ->
      let c = S.Des.encrypt_block ~key64 p in
      Alcotest.(check int64)
        (Printf.sprintf "des roundtrip %Lx" p)
        p
        (S.Des.decrypt_block ~key64 c))
    [ 0x0123456789ABCDEFL; 0L; -1L; 0x675A69675E5A6B5AL ]

let test_skipjack_ir_decrypt () =
  (* the IR decryption program inverts the IR encryption program *)
  let m = 6 in
  let key = S.Skipjack.random_key ~seed:22 in
  let words = S.Skipjack.random_words ~seed:23 (4 * m) in
  let cipher = S.Skipjack.encrypt_stream ~key words in
  let p = S.Skipjack.skipjack_mem_decrypt ~m in
  let r = Interp.run p (S.Skipjack.workload_mem ~key cipher) in
  let got = List.assoc "data_out" r.Interp.outputs in
  Alcotest.(check bool) "ir decrypt inverts encrypt" true
    (Array.for_all2 (fun a b -> a = Types.VInt b) got words);
  (* and the ROM variant *)
  let q = S.Skipjack.skipjack_hw_decrypt ~m ~key in
  let r2 = Interp.run q (S.Skipjack.workload_hw cipher) in
  Alcotest.(check bool) "rom variant too" true
    (Array.for_all2
       (fun a b -> a = Types.VInt b)
       (List.assoc "data_out" r2.Interp.outputs)
       words)

let test_des_ir_decrypt_via_reversed_keys () =
  (* DES decryption in the IR is the encryption program fed the
     reversed subkey schedule, with the halves swapped on the way in
     and out (the Feistel symmetry) *)
  let m = 4 in
  let key64 = 0x133457799BBCDFF1L in
  let halves = S.Des.random_halves ~seed:24 (2 * m) in
  let cipher =
    S.Des.encrypt_stream ~subkeys:(S.Des.key_schedule key64) halves
  in
  (* the encryption stream stores (r16, l16); the decryption pass reads
     those directly as its (l, r) inputs — the Feistel symmetry again *)
  let p = S.Des.des_mem ~m in
  let w =
    Interp.workload
      ~arrays:
        [ ("data_in", Array.map (fun x -> Types.VInt x) cipher);
          ("spbox", Array.map (fun x -> Types.VInt x) S.Des.spbox_flat);
          ("subkeys",
           Array.map (fun x -> Types.VInt x) (S.Des.decrypt_schedule key64)) ]
      ()
  in
  let r = Interp.run p w in
  let got = List.assoc "data_out" r.Interp.outputs in
  (* the program stores (r_final, l_final) = (L0, R0) back at
     (2i, 2i+1) — exactly the original (l, r) layout *)
  Alcotest.(check bool) "ir des decrypt inverts" true
    (Array.for_all2 (fun a b -> a = Types.VInt b) got halves)

let test_squashed_decrypt () =
  (* decryption kernels squash exactly like encryption kernels *)
  let m = 8 in
  let key = S.Skipjack.random_key ~seed:25 in
  let words = S.Skipjack.random_words ~seed:26 (4 * m) in
  let cipher = S.Skipjack.encrypt_stream ~key words in
  let p = S.Skipjack.skipjack_hw_decrypt ~m ~key in
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let out = Helpers.squash p nest ~ds:4 in
  let r =
    Interp.run out.Uas_transform.Squash.program (S.Skipjack.workload_hw cipher)
  in
  Alcotest.(check bool) "squashed decryption" true
    (Array.for_all2
       (fun a b -> a = Types.VInt b)
       (List.assoc "data_out" r.Interp.outputs)
       words)

let suite =
  [ Alcotest.test_case "skipjack host roundtrip" `Quick
      test_skipjack_host_roundtrip;
    Alcotest.test_case "skipjack KAT decrypt" `Quick test_skipjack_kat_decrypt;
    Alcotest.test_case "DES host roundtrip" `Quick test_des_host_roundtrip;
    Alcotest.test_case "skipjack IR decrypt" `Quick test_skipjack_ir_decrypt;
    Alcotest.test_case "DES IR decrypt (reversed keys)" `Quick
      test_des_ir_decrypt_via_reversed_keys;
    Alcotest.test_case "squashed decrypt" `Quick test_squashed_decrypt ]
