(** First-class compiler passes and the pipeline runner.

    A pass is a named step from compilation unit to compilation unit
    that either succeeds or stops the pipeline with a structured
    {!Diag.t}.  The runner wraps every pass in a span named
    [pass.<name>] of the unit's instrumentation sink — so [--timings]
    covers each pipeline stage uniformly — translates the known
    layer-local exceptions into diagnostics ({!Diag.of_exn}), and calls
    an optional [after] hook with the unit each pass produced (the
    mechanism behind nimblec's [--dump-after]). *)

type t = {
  name : string;  (** stable name: span key, [--dump-after] selector *)
  run : Cu.t -> (Cu.t, Diag.t) result;
}

val v : string -> (Cu.t -> (Cu.t, Diag.t) result) -> t

(** Called after each successful pass with the unit it produced. *)
type hook = pass:string -> Cu.t -> unit

(** Run the passes in order.  The first failure stops the pipeline and
    returns its diagnostic; recognized exceptions (illegal transform,
    missing nest, non-kernel loop, ...) are converted via
    {!Diag.of_exn}, anything else propagates with its backtrace. *)
val run : ?after:hook -> Cu.t -> t list -> (Cu.t, Diag.t) result

(** The one supervised fan-out under every pipeline driver (the
    sweep, Table 6.2, the planner), and the one place a cell's task
    starts: [f (Ctx.in_scope ctx (scope x)) x] for every input on the
    supervised {!Uas_runtime.Parallel} pool of [jobs] domains, results
    in input order.  [ctx] defaults to {!Uas_runtime.Ctx.default}.  A
    task the pool gives up on (an uncaught exception, an injected fault
    included, or a [timeout_s] wall-budget overrun) becomes
    [failed x d], [d] a [task] diagnostic, and counts once in
    [sweep.task-failures] — one bad cell never aborts the fan-out. *)
val fan_out :
  ?ctx:Uas_runtime.Ctx.t ->
  ?jobs:int ->
  ?timeout_s:float ->
  scope:('a -> string) ->
  failed:('a -> Diag.t -> 'b) ->
  (Uas_runtime.Ctx.t -> 'a -> 'b) ->
  'a list ->
  'b list
