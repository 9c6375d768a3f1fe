(* The daemon counters exported as the STATS reply's "daemon" object
   and in the drain log line.  Plain atomics — always on, shared
   across the accept loop, reader threads and the dispatcher. *)

type t = {
  admitted : int Atomic.t;  (* work requests accepted into the queue *)
  shed : int Atomic.t;  (* work requests refused with BUSY *)
  timed_out : int Atomic.t;  (* requests killed by their wall budget *)
  degraded : int Atomic.t;  (* requests served with >= 1 incident *)
  drained : int Atomic.t;  (* requests completed during a drain *)
  protocol_errors : int Atomic.t;  (* malformed/oversized/garbage frames *)
  disconnects : int Atomic.t;  (* peers lost mid-request *)
  requests : int Atomic.t;  (* work requests completed (any outcome) *)
  request_us : int Atomic.t;  (* cumulative queue+execute latency *)
}

let create () =
  { admitted = Atomic.make 0;
    shed = Atomic.make 0;
    timed_out = Atomic.make 0;
    degraded = Atomic.make 0;
    drained = Atomic.make 0;
    protocol_errors = Atomic.make 0;
    disconnects = Atomic.make 0;
    requests = Atomic.make 0;
    request_us = Atomic.make 0 }

let add_latency t ~wall_s =
  ignore (Atomic.fetch_and_add t.request_us (int_of_float (wall_s *. 1e6)))

(* Key order is part of the STATS reply: see docs/SERVICE.md. *)
let to_json t ~queue_depth ~inflight =
  Printf.sprintf
    "{\"admitted\":%d,\"shed\":%d,\"timed_out\":%d,\"degraded\":%d,\"drained\":%d,\"protocol_errors\":%d,\"disconnects\":%d,\"requests\":%d,\"request_s\":%.6f,\"queue_depth\":%d,\"inflight\":%d}"
    (Atomic.get t.admitted) (Atomic.get t.shed) (Atomic.get t.timed_out)
    (Atomic.get t.degraded) (Atomic.get t.drained)
    (Atomic.get t.protocol_errors)
    (Atomic.get t.disconnects) (Atomic.get t.requests)
    (float_of_int (Atomic.get t.request_us) /. 1e6)
    queue_depth inflight

let pp ppf (t, queue_depth, inflight) =
  Format.fprintf ppf
    "daemon: %d admitted, %d shed, %d timed out, %d degraded, %d drained; %d \
     protocol errors, %d disconnects; queue %d, inflight %d"
    (Atomic.get t.admitted) (Atomic.get t.shed) (Atomic.get t.timed_out)
    (Atomic.get t.degraded) (Atomic.get t.drained)
    (Atomic.get t.protocol_errors)
    (Atomic.get t.disconnects) queue_depth inflight
