(* The Skipjack block cipher (declassified 1998), the paper's motivating
   real-world kernel (Figure 2.5, §6.2).

   Unchained (ECB) encryption of a stream of 8-byte blocks: the outer
   loop walks the blocks (no carried dependence — the pattern
   unroll-and-squash targets), the inner loop runs the 32 rounds, whose
   G-function F-table lookups form the long recurrence that blocks
   inner-loop pipelining.

   Two variants, as in Table 6.1:
   - [mem]: software-style, with the F-table and the key schedule in
     memory (inner-loop loads);
   - [hw]: optimized for hardware, F-table and key bytes in local ROMs —
     the inner body performs no memory references at all.

   A pure-OCaml host implementation ([encrypt_block], [encrypt_stream])
   provides reference outputs and the official NIST known-answer test. *)

open Uas_ir
module B = Builder

(* The F permutation table from the declassified specification. *)
let f_table =
  [| 0xa3; 0xd7; 0x09; 0x83; 0xf8; 0x48; 0xf6; 0xf4; 0xb3; 0x21; 0x15; 0x78;
     0x99; 0xb1; 0xaf; 0xf9; 0xe7; 0x2d; 0x4d; 0x8a; 0xce; 0x4c; 0xca; 0x2e;
     0x52; 0x95; 0xd9; 0x1e; 0x4e; 0x38; 0x44; 0x28; 0x0a; 0xdf; 0x02; 0xa0;
     0x17; 0xf1; 0x60; 0x68; 0x12; 0xb7; 0x7a; 0xc3; 0xe9; 0xfa; 0x3d; 0x53;
     0x96; 0x84; 0x6b; 0xba; 0xf2; 0x63; 0x9a; 0x19; 0x7c; 0xae; 0xe5; 0xf5;
     0xf7; 0x16; 0x6a; 0xa2; 0x39; 0xb6; 0x7b; 0x0f; 0xc1; 0x93; 0x81; 0x1b;
     0xee; 0xb4; 0x1a; 0xea; 0xd0; 0x91; 0x2f; 0xb8; 0x55; 0xb9; 0xda; 0x85;
     0x3f; 0x41; 0xbf; 0xe0; 0x5a; 0x58; 0x80; 0x5f; 0x66; 0x0b; 0xd8; 0x90;
     0x35; 0xd5; 0xc0; 0xa7; 0x33; 0x06; 0x65; 0x69; 0x45; 0x00; 0x94; 0x56;
     0x6d; 0x98; 0x9b; 0x76; 0x97; 0xfc; 0xb2; 0xc2; 0xb0; 0xfe; 0xdb; 0x20;
     0xe1; 0xeb; 0xd6; 0xe4; 0xdd; 0x47; 0x4a; 0x1d; 0x42; 0xed; 0x9e; 0x6e;
     0x49; 0x3c; 0xcd; 0x43; 0x27; 0xd2; 0x07; 0xd4; 0xde; 0xc7; 0x67; 0x18;
     0x89; 0xcb; 0x30; 0x1f; 0x8d; 0xc6; 0x8f; 0xaa; 0xc8; 0x74; 0xdc; 0xc9;
     0x5d; 0x5c; 0x31; 0xa4; 0x70; 0x88; 0x61; 0x2c; 0x9f; 0x0d; 0x2b; 0x87;
     0x50; 0x82; 0x54; 0x64; 0x26; 0x7d; 0x03; 0x40; 0x34; 0x4b; 0x1c; 0x73;
     0xd1; 0xc4; 0xfd; 0x3b; 0xcc; 0xfb; 0x7f; 0xab; 0xe6; 0x3e; 0x5b; 0xa5;
     0xad; 0x04; 0x23; 0x9c; 0x14; 0x51; 0x22; 0xf0; 0x29; 0x79; 0x71; 0x7e;
     0xff; 0x8c; 0x0e; 0xe2; 0x0c; 0xef; 0xbc; 0x72; 0x75; 0x6f; 0x37; 0xa1;
     0xec; 0xd3; 0x8e; 0x62; 0x8b; 0x86; 0x10; 0xe8; 0x08; 0x77; 0x11; 0xbe;
     0x92; 0x4f; 0x24; 0xc5; 0x32; 0x36; 0x9d; 0xcf; 0xf3; 0xa6; 0xbb; 0xac;
     0x5e; 0x6c; 0xa9; 0x13; 0x57; 0x25; 0xb5; 0xe3; 0xbd; 0xa8; 0x3a; 0x01;
     0x05; 0x59; 0x2a; 0x46 |]

(* --- host reference implementation --- *)

(** G permutation: a 4-round Feistel on the 16-bit word [w] using key
    bytes cv[4k mod 10 .. (4k+3) mod 10] for round counter index [k]
    (0-based). *)
let g_permute ~(key : int array) ~k w =
  let cv i = key.(((4 * k) + i) mod 10) in
  let g1 = (w lsr 8) land 0xff and g2 = w land 0xff in
  let g3 = f_table.(g2 lxor cv 0) lxor g1 in
  let g4 = f_table.(g3 lxor cv 1) lxor g2 in
  let g5 = f_table.(g4 lxor cv 2) lxor g3 in
  let g6 = f_table.(g5 lxor cv 3) lxor g4 in
  (g5 lsl 8) lor g6

(** Encrypt one block given as four 16-bit words (w1, w2, w3, w4). *)
let encrypt_block ~(key : int array) (w1, w2, w3, w4) =
  let w = ref (w1, w2, w3, w4) in
  for k = 0 to 31 do
    let w1, w2, w3, w4 = !w in
    let counter = k + 1 in
    let gw = g_permute ~key ~k w1 in
    if k land 8 = 0 then
      (* Rule A *)
      w := (gw lxor w4 lxor counter, gw, w2, w3)
    else
      (* Rule B *)
      w := (w4, gw, w1 lxor w2 lxor counter, w3)
  done;
  !w

(** Encrypt [m] blocks stored as 4 consecutive 16-bit words each. *)
let encrypt_stream ~(key : int array) (words : int array) : int array =
  let m = Array.length words / 4 in
  let out = Array.make (Array.length words) 0 in
  for i = 0 to m - 1 do
    let w1, w2, w3, w4 =
      encrypt_block ~key
        (words.(4 * i), words.((4 * i) + 1), words.((4 * i) + 2),
         words.((4 * i) + 3))
    in
    out.(4 * i) <- w1;
    out.((4 * i) + 1) <- w2;
    out.((4 * i) + 2) <- w3;
    out.((4 * i) + 3) <- w4
  done;
  out

(* --- IR benchmark programs --- *)

(* Inner-loop round, shared between the variants; [f] and [cv] abstract
   the table accesses (array loads vs ROM lookups). *)
let round_body ~f ~cv : Stmt.t list =
  let open B in
  [ ("cnt" <-- v "j" + int 1);
    ("g1" <-- band (shr (v "w1") (int 8)) (int 255));
    ("g2" <-- band (v "w1") (int 255));
    ("g3" <-- bxor (f (bxor (v "g2") (cv 0))) (v "g1"));
    ("g4" <-- bxor (f (bxor (v "g3") (cv 1))) (v "g2"));
    ("g5" <-- bxor (f (bxor (v "g4") (cv 2))) (v "g3"));
    ("g6" <-- bxor (f (bxor (v "g5") (cv 3))) (v "g4"));
    ("gw" <-- bor (shl (v "g5") (int 8)) (v "g6"));
    ("isA" <-- (band (v "j") (int 8) == int 0));
    ("nw1" <-- select (v "isA") (bxor (bxor (v "gw") (v "w4")) (v "cnt")) (v "w4"));
    ("nw3" <-- select (v "isA") (v "w2") (bxor (bxor (v "w1") (v "w2")) (v "cnt")));
    ("w4" <-- v "w3");
    ("w3" <-- v "nw3");
    ("w2" <-- v "gw");
    ("w1" <-- v "nw1") ]

let locals =
  List.map
    (fun v -> (v, Types.Tint))
    [ "i"; "j"; "cnt"; "g1"; "g2"; "g3"; "g4"; "g5"; "g6"; "gw"; "isA";
      "nw1"; "nw3"; "w1"; "w2"; "w3"; "w4" ]

let block_loop ~m ~body ~arrays ~roms name : Stmt.program =
  let open B in
  B.program name ~locals ~arrays ~roms
    [ for_ "i" ~hi:(int m)
        [ ("w1" <-- load "data_in" (v "i" * int 4));
          ("w2" <-- load "data_in" ((v "i" * int 4) + int 1));
          ("w3" <-- load "data_in" ((v "i" * int 4) + int 2));
          ("w4" <-- load "data_in" ((v "i" * int 4) + int 3));
          for_ "j" ~hi:(int 32) body;
          store "data_out" (v "i" * int 4) (v "w1");
          store "data_out" ((v "i" * int 4) + int 1) (v "w2");
          store "data_out" ((v "i" * int 4) + int 2) (v "w3");
          store "data_out" ((v "i" * int 4) + int 3) (v "w4") ] ]

(* Key-byte index expression for round j, subkey slot s: (4j + s) mod 10. *)
let cv_index s =
  let open B in
  (v "j" * int 4 + int s) % int 10

(** Skipjack-mem: F-table and key schedule live in memory (Table 6.1:
    "software implementation with memory references").  Inputs:
    [data_in] (4 words per block), [ftable] (256), [cv] (10). *)
let skipjack_mem ~m : Stmt.program =
  let f e = B.load "ftable" e in
  let cv s = B.load "cv" (cv_index s) in
  block_loop ~m ~body:(round_body ~f ~cv)
    ~arrays:
      [ B.input "data_in" (4 * m); B.input "ftable" 256; B.input "cv" 10;
        B.output "data_out" (4 * m) ]
    ~roms:[] "skipjack_mem"

(** Skipjack-hw: the F-table and key schedule are local ROMs; the inner
    body performs no memory references (Table 6.1: "optimized for
    hardware"). *)
let skipjack_hw ~m ~(key : int array) : Stmt.program =
  let f e = B.rom "ftable" e in
  let cv s = B.rom "cv" (cv_index s) in
  block_loop ~m ~body:(round_body ~f ~cv)
    ~arrays:[ B.input "data_in" (4 * m); B.output "data_out" (4 * m) ]
    ~roms:[ B.rom_decl "ftable" f_table; B.rom_decl "cv" (Array.copy key) ]
    "skipjack_hw"

(* --- workloads --- *)

(** The official known-answer test vector from the Skipjack/KEA
    specification: key 00 99 88 77 66 55 44 33 22 11, plaintext
    33 22 11 00 dd cc bb aa, ciphertext 25 87 ca e2 7a 12 d3 00. *)
let kat_key = [| 0x00; 0x99; 0x88; 0x77; 0x66; 0x55; 0x44; 0x33; 0x22; 0x11 |]

let kat_plaintext_words = [| 0x3322; 0x1100; 0xddcc; 0xbbaa |]
let kat_ciphertext_words = [| 0x2587; 0xcae2; 0x7a12; 0xd300 |]

let random_key ~seed =
  let rng = Random.State.make [| seed; 0x5105 |] in
  Array.init 10 (fun _ -> Random.State.int rng 256)

let random_words ~seed n =
  let rng = Random.State.make [| seed; 0xda7a |] in
  Array.init n (fun _ -> Random.State.int rng 0x10000)

(** Workload for the [mem] variant. *)
let workload_mem ~(key : int array) (words : int array) : Interp.workload =
  Interp.workload
    ~arrays:
      [ ("data_in", Array.map (fun w -> Types.VInt w) words);
        ("ftable", Array.map (fun w -> Types.VInt w) f_table);
        ("cv", Array.map (fun w -> Types.VInt w) key) ]
    ()

(** Workload for the [hw] variant (tables are baked into ROMs). *)
let workload_hw (words : int array) : Interp.workload =
  Interp.workload
    ~arrays:[ ("data_in", Array.map (fun w -> Types.VInt w) words) ]
    ()

(* --- decryption ---

   The inverse cipher: rounds run backwards with the inverse G
   permutation (the F-chain unwound from the other end).  The decryption
   kernel has the same serial-lookup recurrence as encryption, so it is
   squashable the same way — and encrypt/decrypt round-trips are a
   strong end-to-end check on both. *)

(** Inverse of [g_permute]. *)
let g_unpermute ~(key : int array) ~k w =
  let cv i = key.(((4 * k) + i) mod 10) in
  let g5 = (w lsr 8) land 0xff and g6 = w land 0xff in
  let g4 = f_table.(g5 lxor cv 3) lxor g6 in
  let g3 = f_table.(g4 lxor cv 2) lxor g5 in
  let g2 = f_table.(g3 lxor cv 1) lxor g4 in
  let g1 = f_table.(g2 lxor cv 0) lxor g3 in
  (g1 lsl 8) lor g2

(** Decrypt one block (inverse of [encrypt_block]). *)
let decrypt_block ~(key : int array) (w1, w2, w3, w4) =
  let w = ref (w1, w2, w3, w4) in
  for j = 0 to 31 do
    let k = 31 - j in
    let counter = k + 1 in
    let w1', w2', w3', w4' = !w in
    if k land 8 = 0 then begin
      (* inverse Rule A *)
      let w1 = g_unpermute ~key ~k w2' in
      let w4 = w1' lxor w2' lxor counter in
      w := (w1, w3', w4', w4)
    end
    else begin
      (* inverse Rule B *)
      let w1 = g_unpermute ~key ~k w2' in
      let w2 = w3' lxor w1 lxor counter in
      w := (w1, w2, w4', w1')
    end
  done;
  !w

(* key-byte index for backward round kk, slot s: (4*kk + s) mod 10 *)
let cv_index_back s =
  let open B in
  (v "kk" * int 4 + int s) % int 10

(* the decryption round in the IR; kk = 31 - j is the forward index *)
let unround_body ~f ~cv : Stmt.t list =
  let open B in
  [ ("kk" <-- int 31 - v "j");
    ("cnt" <-- v "kk" + int 1);
    ("g5" <-- band (shr (v "w2") (int 8)) (int 255));
    ("g6" <-- band (v "w2") (int 255));
    ("g4" <-- bxor (f (bxor (v "g5") (cv 3))) (v "g6"));
    ("g3" <-- bxor (f (bxor (v "g4") (cv 2))) (v "g5"));
    ("g2" <-- bxor (f (bxor (v "g3") (cv 1))) (v "g4"));
    ("g1" <-- bxor (f (bxor (v "g2") (cv 0))) (v "g3"));
    ("gw" <-- bor (shl (v "g1") (int 8)) (v "g2"));
    ("isA" <-- (band (v "kk") (int 8) == int 0));
    (* inverse rule A: (w1..w4) := (G^-1 w2, w3, w4, w1^w2^cnt)
       inverse rule B: (w1..w4) := (G^-1 w2, w3^G^-1(w2)^cnt, w4, w1) *)
    ("nw4" <--
     select (v "isA") (bxor (bxor (v "w1") (v "w2")) (v "cnt")) (v "w1"));
    ("nw2" <--
     select (v "isA") (v "w3") (bxor (bxor (v "w3") (v "gw")) (v "cnt")));
    ("nw3" <-- select (v "isA") (v "w4") (v "w4"));
    ("w1" <-- v "gw");
    ("w2" <-- v "nw2");
    ("w3" <-- v "nw3");
    ("w4" <-- v "nw4") ]

let decrypt_locals =
  List.map
    (fun v -> (v, Types.Tint))
    [ "i"; "j"; "kk"; "cnt"; "g1"; "g2"; "g3"; "g4"; "g5"; "g6"; "gw"; "isA";
      "nw2"; "nw3"; "nw4"; "w1"; "w2"; "w3"; "w4" ]

let unblock_loop ~m ~body ~arrays ~roms name : Stmt.program =
  let p = block_loop ~m ~body ~arrays ~roms name in
  { p with Stmt.locals = decrypt_locals }

(** Skipjack decryption with tables in memory. *)
let skipjack_mem_decrypt ~m : Stmt.program =
  let f e = B.load "ftable" e in
  let cv s = B.load "cv" (cv_index_back s) in
  unblock_loop ~m ~body:(unround_body ~f ~cv)
    ~arrays:
      [ B.input "data_in" (4 * m); B.input "ftable" 256; B.input "cv" 10;
        B.output "data_out" (4 * m) ]
    ~roms:[] "skipjack_mem_decrypt"

(** Skipjack decryption with tables in ROM. *)
let skipjack_hw_decrypt ~m ~(key : int array) : Stmt.program =
  let f e = B.rom "ftable" e in
  let cv s = B.rom "cv" (cv_index_back s) in
  unblock_loop ~m ~body:(unround_body ~f ~cv)
    ~arrays:[ B.input "data_in" (4 * m); B.output "data_out" (4 * m) ]
    ~roms:[ B.rom_decl "ftable" f_table; B.rom_decl "cv" (Array.copy key) ]
    "skipjack_hw_decrypt"
