(** A fixed-size Domain worker pool for the version sweep, with
    optional supervision.

    The sweep of Table 6.2 is embarrassingly parallel — every
    (benchmark, version) cell builds, estimates and verifies
    independently — so the pool is deliberately simple: an atomic
    work-queue index over an immutable input array, one worker per
    domain, results written to disjoint slots.  Results always come
    back in input order.

    Two entry points share that machinery.  {!map} is observably
    [List.map] — an exception raised by a task is captured with its
    backtrace and re-raised in the caller (the input-order first one
    wins) after the remaining tasks drain.  {!map_results} is the
    supervised variant: each input gets a per-cell
    [('b, Task_failure.t) result], a wall budget turns an overrunning
    task into [Timed_out] (via a watchdog domain) instead of hanging
    the pool, and retryable failures — injected faults —
    are retried with exponential backoff.

    Tasks must not touch shared mutable state; every pass in this
    repository is pure (all its refs are function-local), which is what
    makes the fan-out sound.  Each task runs at the fault-injection
    site [parallel.task] (label: decimal input index) of the caller's
    context with the worker's
    cancellation flag installed via {!Fault.set_cancel}, so a
    cooperative stall ends as soon as the watchdog times the task
    out. *)

(** The environment variable consulted by [default_jobs]: ["UAS_JOBS"]. *)
val jobs_env_var : string

(** Pool size: [$UAS_JOBS] when set, [Domain.recommended_domain_count]
    otherwise; [Error] describes a malformed [$UAS_JOBS].  CLIs check
    this at startup so the user sees a diagnostic, not a backtrace. *)
val default_jobs_result : unit -> (int, string) result

(** [default_jobs_result] for internal callers.
    @raise Invalid_argument when [$UAS_JOBS] is not a positive
    integer. *)
val default_jobs : unit -> int

(** Why a supervised task produced no result. *)
module Task_failure : sig
  type t =
    | Raised of {
        exn : exn;
        backtrace : Printexc.raw_backtrace;
        attempts : int;  (** total attempts made, [>= 1] *)
      }
        (** The task raised on its last attempt (after exhausting any
            retry budget). *)
    | Timed_out of { elapsed_s : float; budget_s : float }
        (** The watchdog resolved the slot after the task overran its
            wall budget; any late result from the task is discarded. *)

  val to_message : t -> string
  val pp : t Fmt.t
end

(** [map_results ?ctx ?jobs ?timeout_s ?retries ?retry_backoff_s f xs]
    runs [f] over [xs] on the pool and returns one
    [('b, Task_failure.t) result] per input, in input order — no
    exception ever escapes.  [ctx] (default {!Ctx.default}) supplies the
    [parallel.task] fault plan and scope and the sink of the [pool.*]
    counters.

    - [timeout_s]: per-task wall budget.  When set, a watchdog domain
      polls running tasks, marks overrunners [Timed_out] and raises
      their worker's cancellation flag ({!Fault.cancel_requested}).  A
      task deaf to cancellation costs its worker, never the pool:
      remaining tasks drain through the other workers and the stuck
      domain is abandoned (counted as ["pool.abandoned-workers"])
      rather than joined.
    - [retries] (default 0): extra attempts for an injected fault
      ({!Fault.is_injected}), with backoff
      [retry_backoff_s * 2^(attempt-1)] (default base 10ms) between
      attempts.  Retries count as ["pool.retries"], timeouts as
      ["pool.timed-out"]. *)
val map_results :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?retry_backoff_s:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, Task_failure.t) result list

(** [map ?jobs f xs] is [List.map f xs] computed by a pool of [jobs]
    domains (default [default_jobs ()]; never more than
    [List.length xs]).  [jobs = 1] runs sequentially in the calling
    domain with no pool at all.  Results are in input order.  If one or
    more applications of [f] raise, the remaining tasks still run and
    the exception of the earliest failed *input* is re-raised with its
    original backtrace. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_reduce ?jobs ~map ~reduce ~init xs] maps over the pool, then
    folds the results left-to-right in input order:
    [List.fold_left reduce init (map ?jobs map xs)] — deterministic
    even when [reduce] is not commutative. *)
val map_reduce :
  ?jobs:int ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
