(** The nimbled engine: a Unix-domain-socket daemon serving
    estimate and plan requests through the Cu pipeline with bounded
    admission, per-request wall budgets, per-connection fault
    isolation, graceful drain and crash recovery.

    {!run} blocks until the daemon drains (via SIGTERM when
    [c_handle_signals], or a [DRAIN] frame) and returns [Ok ()] on a
    clean exit — the caller maps that to exit status 0.  Degradation
    semantics per fault site are documented in [docs/SERVICE.md]. *)

type config = {
  c_socket : string;  (** Unix-domain socket path *)
  c_pidfile : string option;
  c_queue_depth : int;  (** admission bound; beyond it requests shed *)
  c_limits : Handler.limits;  (** jobs / per-cell timeout *)
  c_request_budget_s : float option;
      (** default per-request wall budget; a request's [budget=] key
          overrides it *)
  c_drain_timeout_s : float;
  c_max_frame : int;  (** largest accepted request body, bytes *)
  c_handle_signals : bool;
      (** install SIGTERM/SIGINT drain handlers (the nimbled binary
          does; in-process tests do not) *)
  c_log : string -> unit;  (** one line per event, e.g. [prerr_endline] *)
}

(** Queue 16, no limits or budget, 30 s drain timeout, no pidfile, no
    signal handlers, silent log. *)
val default_config : socket:string -> config

(** Bind, recover stale state, serve until drained.  Every request
    runs under [ctx] (default {!Uas_runtime.Ctx.default}): its store
    backs the cells and STATS, its fault plan arms the [service.*]
    sites and the cells alike, counted across requests.  [Error] covers
    a live daemon already owning the socket or pidfile and bind
    failures; after a successful bind the daemon never returns
    [Error] — faults degrade requests, not the process. *)
val run : ?ctx:Uas_runtime.Ctx.t -> config -> (unit, string) result
