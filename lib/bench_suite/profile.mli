(** The Table 1.1 profiling study: six modeled applications (real hot
    kernels, cold-loop populations matching the static counts) run
    under the interpreter's profiler. *)

open Uas_ir

type app = {
  app_name : string;
  program : Stmt.program;
  workload : Interp.workload;
  paper_loops : int;
  paper_hot : int;
  paper_percent : int;
}

val wavelet : size:int -> app
val epic : unit -> app
val unepic : unit -> app
val adpcm : samples:int -> app
val mpeg2 : unit -> app
val skipjack_app : blocks:int -> app

(** The six applications with the paper's workload sizes. *)
val all : unit -> app list

type row = {
  row_app : string;
  loops : int;  (** static loop count *)
  hot_loops : int;  (** loops above 1% of execution time *)
  hot_percent : float;  (** time covered by the outermost hot loops *)
  paper : int * int * int;
}

val static_loop_count : Stmt.program -> int

(** [tier] selects the interpreter (default
    {!Fast_interp.default_tier}); the profile, and hence the row, is
    bit-identical on either tier. *)
val profile_app : ?ctx:Uas_runtime.Ctx.t -> ?tier:Fast_interp.tier -> app -> row

(** The full Table 1.1. *)
val table : ?ctx:Uas_runtime.Ctx.t -> unit -> row list
