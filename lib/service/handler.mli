(** Typed nimbled requests: body grammar, parsing, rendering and
    execution — shared by the daemon, the [nimblec --server] client
    and its local fallback, so daemon-served output is byte-identical
    to in-process output by construction.

    A work body is the benchmark name on the first line, then a
    {!Uas_runtime.Record}:
    {v
    <benchmark>
    key=value ...     verify|validate|objective|budget
    v}
    Unknown keys and malformed values are one-line parse errors (the
    daemon replies ERR), never exceptions. *)

type estimate_opts = {
  e_bench : string;
  e_verify : bool;
  e_tier : unit option;
      (** ignored, never sent; kept only so the frozen perf harness
          ([bench/perf]) compiles *)
  e_validate : bool;
  e_exact : Uas_dfg.Sched.exact_mode;
      (** ignored, never sent; kept only so the frozen perf harness
          ([bench/perf]) compiles *)
  e_budget_s : float option;  (** per-request wall budget override *)
}

type plan_opts = {
  p_bench : string;
  p_objective : Uas_core.Planner.objective;
  p_validate : bool;
  p_budget_s : float option;
}

type work = W_estimate of estimate_opts | W_plan of plan_opts

(** The options of a bare estimate body naming only [bench]: no
    verification, no validation, no budget. *)
val estimate_opts : string -> estimate_opts

type request = Hello of string | Work of work | Stats | Health | Drain

val work_name : work -> string
val bench_name : work -> string
val budget_s : work -> float option

(** Render a request as its wire frame (the client side). *)
val to_frame : request -> Protocol.frame

(** Parse a received frame's body into a typed request (the daemon
    side); [Error] is the one-line ERR message. *)
val parse : Protocol.frame -> (request, string) result

(** {2 Rendering}

    The exact bytes the daemon serves — and the exact bytes the local
    paths print, which is what makes the CI goldens one set. *)

(** The estimate output: Table 6.2 then Table 6.3. *)
val render_estimate : Uas_core.Experiments.bench_row -> string

(** The plan output (one ranked table). *)
val render_plan : Uas_core.Planner.plan -> string

(** {2 Execution} *)

(** The daemon-wide execution limits threaded into every request's
    nested {!Uas_runtime.Parallel} pool. *)
type limits = {
  l_jobs : int option;
  l_timeout_s : float option;  (** per-cell wall budget (PR 5 watchdog) *)
}

val no_limits : limits

(** Run one work request through the Cu pipeline and render its reply
    payload, returning the payload with the request's incident count
    (skipped or degraded cells — the daemon's [degraded] counter).
    [Error] is a one-line message: unknown benchmark, a structured
    diagnostic, or an injected fault.  Never raises. *)
val execute :
  ?ctx:Uas_runtime.Ctx.t ->
  ?limits:limits ->
  work ->
  (string * int, string) result
