(** The Table 6.1 benchmark suite packaged uniformly: program, kernel
    location, reference workload, and host-computed expected outputs. *)

open Uas_ir

type benchmark = {
  b_name : string;  (** Table 6.1 name, e.g. "Skipjack-mem" *)
  b_description : string;
  b_program : Stmt.program;
  b_outer_index : string;
  b_inner_index : string;
  b_workload : Interp.workload;
  b_reference : (Types.array_id * Types.value array) list;
}

val skipjack_mem : ?m:int -> unit -> benchmark
val skipjack_hw : ?m:int -> unit -> benchmark
val des_mem : ?m:int -> unit -> benchmark
val des_hw : ?m:int -> unit -> benchmark
val iir : ?channels:int -> unit -> benchmark
val wavelet3 : unit -> benchmark

(** The five benchmarks in the paper's order. *)
val all : unit -> benchmark list

(** Benchmarks beyond the Table 6.1 suite (the 3-deep wavelet nest),
    kept out of {!all} so the Table 6.2 goldens are untouched. *)
val extras : unit -> benchmark list

(** Case-insensitive lookup by name, over {!all} and {!extras}. *)
val find : string -> benchmark option

(** Run compiled code on a workload under an [interp.run] span of the
    context's sink.

    This is the [interp.run] fault-injection site (no label; pin a
    cell with a scope): [raise] throws [Fault.Injected], [stall] runs
    with a tiny fuel budget so the run surfaces as
    [Interp.Out_of_fuel], and [corrupt] perturbs the first output
    value — the scenarios the sweep's verification must absorb as
    unverified/skipped cells. *)
val run :
  Uas_runtime.Ctx.t ->
  ?fuel:int ->
  Fast_interp.compiled ->
  Interp.workload ->
  Interp.result

(** Does an already-computed interpreter result reproduce the host
    reference bit-for-bit?  A missing output array is reported with the
    benchmark name and the outputs that were actually produced. *)
val check_result : benchmark -> Interp.result -> (unit, string) result

(** Does running [p] (compiled) on the benchmark workload reproduce
    the host reference bit-for-bit? *)
val check_against_reference : benchmark -> Stmt.program -> (unit, string) result
