(** nimbled service counters: exported as the ["daemon"] object of the
    [STATS] reply and in the drain log line.  All fields are atomics —
    the accept loop, reader threads and the dispatcher update them
    concurrently. *)

type t = {
  admitted : int Atomic.t;  (** work requests accepted into the queue *)
  shed : int Atomic.t;  (** work requests refused with [BUSY] *)
  timed_out : int Atomic.t;  (** requests killed by their wall budget *)
  degraded : int Atomic.t;  (** requests served with >= 1 incident *)
  drained : int Atomic.t;  (** requests completed during a drain *)
  protocol_errors : int Atomic.t;
  disconnects : int Atomic.t;  (** peers lost mid-request *)
  requests : int Atomic.t;  (** work requests completed (any outcome) *)
  request_us : int Atomic.t;  (** cumulative per-request latency, µs *)
}

val create : unit -> t
val add_latency : t -> wall_s:float -> unit

(** The [STATS] reply's ["daemon"] JSON object; the two gauges are
    sampled by the caller at render time. *)
val to_json : t -> queue_depth:int -> inflight:int -> string

(** One human line for stderr. *)
val pp : Format.formatter -> t * int * int -> unit
