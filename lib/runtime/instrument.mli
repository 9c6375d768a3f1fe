(** Per-pass timing spans and counters for the sweep engine.

    A sink is a value each run carries in its context ({!Ctx.t}):
    {!off} (the default) makes [span] a direct call with no clock read,
    so instrumentation can stay compiled into the hot passes.  A sink
    from {!create} (the [--timings] flag of bench/main.exe and nimblec)
    records wall-clock time into tables shared by all pool domains and
    guarded by a single mutex — spans only lock on entry/exit, never
    during the timed work.

    The {!Uas_pass.Pass} runner names its spans [pass.<name>] — one per
    pipeline pass ([pass.loop-nest], [pass.squash], [pass.jam],
    [pass.dfg-build], [pass.schedule], [pass.estimate], plus
    [pass.verify] around interpreter replay).  The quick-synthesis
    stages' inner [dfg-build]/[schedule] spans remain for
    finer-grained attribution, and the compilation unit publishes
    [cu.nest-hit]/[cu.nest-miss] counters. *)

type t

(** The sink that records nothing. *)
val off : t

(** A fresh, empty recording sink. *)
val create : unit -> t

(** [span t name f] runs [f ()]; on a recording sink, its wall-clock
    duration is added to the stats of [name] (also on exception). *)
val span : t -> string -> (unit -> 'a) -> 'a

(** [incr ?by t name] bumps counter [name] (default [by = 1]); a no-op
    on {!off}. *)
val incr : ?by:int -> t -> string -> unit

type span_stat = {
  calls : int;
  total_s : float;  (** summed wall-clock seconds *)
  max_s : float;  (** longest single call *)
}

(** Snapshot of every recorded span, most total time first (ties by
    name). *)
val spans : t -> (string * span_stat) list

(** Snapshot of every counter, by name. *)
val counters : t -> (string * int) list

(** The summary table: one row per span (calls, total, mean, max in
    milliseconds) followed by the counters. *)
val pp_summary : t Fmt.t

(** The same data as a JSON object:
    [{"spans": {name: {"calls": n, "total_ms": x, "mean_ms": x,
    "max_ms": x}}, "counters": {name: n}}]. *)
val to_json : t -> string

(** Escape a string for embedding in a JSON string literal (also used
    by {!Trajectory}). *)
val json_escape : string -> string
