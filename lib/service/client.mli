(** The [nimblec --server] client: bounded retry, exponential backoff,
    deterministic jitter, reply validation.

    Degradation contract: {!Unreachable} (connect failures, I/O
    errors, truncated or checksum-failed replies, BUSY beyond the
    attempt budget) tells the caller to fall back to local in-process
    compilation with an incident footnote; {!Rejected} (an ERR reply)
    means the daemon is alive and failed this request deterministically
    — retrying would not help, so the caller falls back immediately. *)

(** The full delay schedule ([attempts - 1] waits): delay k is
    [base_s * 2^k * (1 + j)] with jitter [j] in [0, 0.5) a pure
    function of [(seed, k)] — pin the seed and the schedule is
    reproducible; default the seed to the pid and concurrent clients
    decorrelate. *)
val backoff_schedule :
  attempts:int -> base_s:float -> seed:int -> float list

type conn

val connect : string -> (conn, string) result
val close : conn -> unit

(** One request/reply exchange; [Error] covers I/O failures and every
    {!Protocol.error} (a corrupted reply is an error here, which the
    retry loop then treats as a failed attempt). *)
val request : conn -> Protocol.frame -> (Protocol.frame, string) result

(** Parse the daemon's BUSY hint ("retry-after=<secs> ..."). *)
val retry_after_hint : string -> float option

type outcome =
  | Served of string  (** OK payload *)
  | Rejected of string  (** ERR body: daemon alive, request failed *)
  | Unreachable of string  (** no usable daemon after all attempts *)

(** Connect–request–close with the retry policy above.  [seed]
    defaults to the pid. *)
val call :
  ?attempts:int -> ?base_s:float -> ?seed:int -> string -> Protocol.frame ->
  outcome

(** {!call} on a work request rendered by {!Handler.to_frame}. *)
val serve_work :
  ?attempts:int -> ?base_s:float -> ?seed:int -> string -> Handler.work ->
  outcome
