(** A fixed-size Domain worker pool for the version sweep, with
    optional supervision.

    The sweep of Table 6.2 is embarrassingly parallel — every
    (benchmark, version) cell builds, estimates and verifies
    independently — so the pool is deliberately simple: an atomic
    work-queue index over an immutable input array, one worker per
    domain, results written to disjoint slots.  Results always come
    back in input order.  The worker domains other than the caller are
    helpers kept across calls: when a call ends they wait for the next
    one, at most [max 1 (Domain.recommended_domain_count () - 1)] of
    them (the rest exit), and a call that finds none idle spawns one,
    counted as ["pool.spawned"].

    {!map_results} is the one entry point, and it is supervised: each
    input gets a per-cell [('b, Task_failure.t) result], so a task that
    raises (an injected fault included) fails its own cell and nothing
    else, and a wall budget turns an overrunning task into [Timed_out]
    (the calling domain is the watchdog) instead of hanging the pool.
    One call asks for at most 126 helpers, below OCaml 5.1's limit of
    128 domains; a helper that cannot be spawned (other domains alive)
    leaves its tasks to the workers already running.

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
    | Raised of { exn : exn }  (** The task raised. *)
    | Timed_out of { elapsed_s : float; budget_s : float }
        (** The watchdog resolved the slot after the task overran its
            wall budget; any late result from the task is discarded. *)

  val to_message : t -> string
end

(** [map_results ?ctx ?jobs ?timeout_s f xs] runs [f] over [xs] on a
    pool of [jobs] workers (default [default_jobs ()]; never more than
    [List.length xs]) and returns one [('b, Task_failure.t) result] per
    input, in input order — no exception ever escapes.  [jobs = 1]
    without a wall budget runs sequentially in the calling domain.
    [ctx] (default {!Ctx.default}) supplies the [parallel.task] fault
    plan and scope and the sink of the [pool.*] counters.

    [timeout_s] is a per-task wall budget.  When set, every worker runs
    on a helper and the calling domain polls the running tasks, marks
    overrunners [Timed_out] (counted as ["pool.timed-out"]) and raises
    their worker's cancellation flag ({!Fault.cancel_requested}).  A
    task deaf to cancellation costs its worker, never the pool:
    remaining tasks drain through the other workers, the call returns
    without it (counted as ["pool.abandoned-workers"]), and its helper
    rejoins the idle set when the task ends.  When not one helper can
    be spawned, the caller runs the tasks itself and the budget is not
    enforced. *)
val map_results :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  ?timeout_s:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, Task_failure.t) result list
