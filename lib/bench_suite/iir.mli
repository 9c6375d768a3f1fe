(** The IIR benchmark: a 4-cascaded biquad filter (direct form II)
    processing 64 points per channel over a bank of independent
    channels — the floating-point kernel whose feedback recurrence
    makes squash efficiency grow with the unroll factor (Figure 6.3). *)

open Uas_ir

type coeffs = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }

(** The four fixed biquad sections. *)
val cascade : coeffs array

val points_per_channel : int

(** Channel-major multi-channel filtering. *)
val filter_bank : channels:int -> float array -> float array

(** The IR filter bank over [channels] channels of 64 points. *)
val iir : channels:int -> Stmt.program

val random_signal : seed:int -> int -> float array
val workload : float array -> Interp.workload
