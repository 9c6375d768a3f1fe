(** The DES block cipher (FIPS 46), the paper's second cryptographic
    benchmark.  The hardware kernel is the 16-round Feistel core using
    combined SP-boxes (8 lookups + one subkey fetch per round); IP/FP
    are wiring and live in the host-side block helpers.  The host model
    passes the textbook known-answer test. *)

open Uas_ir

val p_table : int array

(** Bit-select [x] per [table] (bit 1 = MSB of [in_width] bits). *)
val permute : in_width:int -> int array -> int -> int

val sbox_lookup : int -> int -> int

(** Combined S-then-P boxes: [spbox.(b).(v)] is a 32-bit word. *)
val spbox : int array array

(** Flattened SP table, [spbox_flat.(64*b + v)]. *)
val spbox_flat : int array

(** 16 48-bit subkeys from a 64-bit key. *)
val key_schedule : int64 -> int array

(** Reversed schedule, for decryption. *)
val decrypt_schedule : int64 -> int array

(** The 16-round core on 32-bit halves; returns the preoutput
    (r16, l16). *)
val encrypt_core : subkeys:int array -> int * int -> int * int

(** Full FIPS DES on a 64-bit block (IP + core + FP). *)
val encrypt_block : key64:int64 -> int64 -> int64

val decrypt_block : key64:int64 -> int64 -> int64

(** Core encryption of blocks stored as (l, r) word pairs; the output
    stores the preoutput (r16, l16) per block. *)
val encrypt_stream : subkeys:int array -> int array -> int array

(** DES-mem: SP-boxes and subkeys in memory. *)
val des_mem : m:int -> Stmt.program

(** DES-hw: SP-boxes and subkeys in local ROM. *)
val des_hw : m:int -> key64:int64 -> Stmt.program

(** The textbook vector: 0x133457799BBCDFF1 / 0x0123456789ABCDEF. *)
val kat_key : int64

val kat_plaintext : int64
val kat_ciphertext : int64
val random_halves : seed:int -> int -> int array
val workload_mem : key64:int64 -> int array -> Interp.workload
val workload_hw : int array -> Interp.workload
