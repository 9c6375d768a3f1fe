(** The Skipjack block cipher (declassified 1998), the paper's
    motivating kernel (Figure 2.5, §6.2): unchained encryption of 8-byte
    blocks, 32 rounds of G-permutation F-table lookups.  Host reference
    implementation (passes the official test vector) plus the [mem] and
    [hw] IR benchmark variants, and the inverse cipher. *)

open Uas_ir

(** The declassified F permutation (a 256-byte bijection). *)
val f_table : int array

val encrypt_block : key:int array -> int * int * int * int -> int * int * int * int

(** Encrypt blocks stored as 4 consecutive 16-bit words each. *)
val encrypt_stream : key:int array -> int array -> int array

val decrypt_block : key:int array -> int * int * int * int -> int * int * int * int

(** Skipjack-mem: F-table and key schedule in memory (inner-loop
    loads). *)
val skipjack_mem : m:int -> Stmt.program

(** Skipjack-hw: tables in local ROM; no memory references in the round
    loop. *)
val skipjack_hw : m:int -> key:int array -> Stmt.program

val skipjack_mem_decrypt : m:int -> Stmt.program
val skipjack_hw_decrypt : m:int -> key:int array -> Stmt.program

(** The official known-answer vector (key 00 99 88 ... 11). *)
val kat_key : int array

val kat_plaintext_words : int array
val kat_ciphertext_words : int array
val random_key : seed:int -> int array
val random_words : seed:int -> int -> int array
val workload_mem : key:int array -> int array -> Interp.workload
val workload_hw : int array -> Interp.workload
