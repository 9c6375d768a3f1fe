(** A 3-deep lifting-wavelet-style kernel (the Table 1.1 cascade
    shape): 4 bands × 8 rows × 8 taps, folding each row through an
    integer lifting recurrence.  The raw squash on the (b, r) pair is
    illegal — the candidate inner body contains the taps loop — so the
    enabling route is flatten then squash, which is what the deep-nest
    planner and sweep exercise end to end. *)

open Uas_ir

val bands : int
val taps : int

(** The number of row signatures produced: 8 rows per band. *)
val rows : int

(** Host reference, mirroring the IR operation-for-operation. *)
val transform : int array -> int array -> int array

(** The 3-deep IR nest ([b]/[r]/[c] with row pointer [p]). *)
val wavelet3 : unit -> Stmt.program

val random_image : seed:int -> int array
val random_coeffs : seed:int -> int array
val workload : int array -> int array -> Interp.workload
