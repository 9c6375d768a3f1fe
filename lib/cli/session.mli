(** The command surface shared by [nimblec], [nimbled] and
    [bench/main.exe]: one Cmdliner term per runtime flag, the session
    record those terms build, and the start-up sequence every binary
    runs before doing any work.

    Each shared flag is declared here and nowhere else, and its range
    check lives in its converter, so a bad value ([-j 0],
    [--task-timeout nan], [--validate maybe]) is the same parse error,
    with the same message, on every binary. *)

type t = {
  jobs : int option;
      (** [-j]/[--jobs]: worker-pool size; [None] defers to [UAS_JOBS]
          or the core count *)
  fault : string option;
      (** [--fault PLAN]: a fault plan in the [UAS_FAULT] grammar *)
  cache : string option;  (** [--cache DIR], or [UAS_CACHE] *)
  cache_verify : bool;  (** [--cache-verify] *)
  task_timeout : float option;  (** [--task-timeout SECS] *)
  validate : bool;  (** [--validate probe] *)
  timings : bool;  (** [--timings] *)
}

(** Every field at its default: the session of [nimblec run] and
    [nimblec profile], which take no session flags. *)
val default : t

(** The runtime flags: [-j], [--fault], [--cache], [--cache-verify]
    and [--task-timeout] ([nimbled]). *)
val runtime : t Cmdliner.Term.t

(** {!runtime} plus the compile flags [--validate] and [--timings]
    ([nimblec estimate]/[plan] and [bench/main.exe]). *)
val term : t Cmdliner.Term.t

(** An integer of at least [min]; [expect] names the range in the
    error ("a positive integer"). *)
val int_at_least : int -> expect:string -> int Cmdliner.Arg.conv

(** A wall budget in seconds, range-checked by
    {!Uas_runtime.Budget.timeout_of_string} under the name [flag]. *)
val seconds : flag:string -> float Cmdliner.Arg.conv

(** [failf ~prog fmt] prints ["prog: error[pass]: <message>"] on stderr
    and exits 1.  [pass] defaults to ["runtime"]. *)
val failf :
  prog:string -> ?pass:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Write [contents] to the file [path]; an unwritable path is a
    {!failf} diagnostic naming [what] (the flag or command) and the
    file. *)
val write_output : prog:string -> what:string -> string -> string -> unit

(** Reject a malformed [UAS_JOBS] or [UAS_FAULT] and return the run
    context: the fault plan of [--fault] (else [UAS_FAULT], else none),
    a recording instrumentation sink with [--timings],
    [--cache-verify], no store and no scope.  Any problem is a {!failf}
    diagnostic. *)
val start : prog:string -> t -> Uas_runtime.Ctx.t

(** The context with the [--cache] store opened (unchanged without
    one).  Kept apart from {!start} because [nimblec --server] opens
    the store only when it falls back to local compilation.  An
    unopenable directory is a {!failf} diagnostic. *)
val open_store : prog:string -> t -> Uas_runtime.Ctx.t -> Uas_runtime.Ctx.t

(** The context's store hit-rate line, on stderr so stdout stays
    byte-identical with and without a store. *)
val report_store : Uas_runtime.Ctx.t -> unit
