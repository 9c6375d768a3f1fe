(** The perf-trajectory document behind [bench/main.exe --json FILE]:
    a schema-stable JSON record of one harness run — per-target
    wall-clock, named metrics (e.g. microbenchmark ns/run), ranked
    planner tables, the pool size, and the
    {!Instrument} span/counter breakdown.

    Schema (version 10; no timestamps, so snapshots diff cleanly):
    {v
    { "schema": "uas-bench-trajectory",
      "version": 10,
      "jobs": null | N,
      "fault_plan": null | "site:kind:nth,...",
      "store": null | {"hits": n, "misses": n, "bad": n, "writes": n,
                       "evicted": n, "evict_skipped": n, "hit_rate": x,
                       "read_s": s, "write_s": s},
      "targets": [ {"name": "...", "wall_s": s}, ... ],
      "metrics": [ {"name": "...", "value": x, "unit": "..."}, ... ],
      "plans": [ { "benchmark": "...", "objective": "...",
                   "rows": [ {"rank": k, "label": "...", "ds": d,
                              "ii": n, "area": n, "cycles": n,
                              "speedup": x, "ratio": x,
                              "skipped": null | "diagnostic"}, ... ] },
                 ... ],
      "incidents": [ {"site": "sweep" | "plan" | "validate" | ...,
                      "cell": "<benchmark>/<version>",
                      "message": "diagnostic"}, ... ],
      "instrumentation": { "spans": {...}, "counters": {...} } }
    v}

    [fault_plan] echoes the context's {!Fault} plan (null on a clean run,
    so clean snapshots are unchanged by-key from v2 apart from the
    version bump and the empty [incidents] array).  [store] echoes the
    context's {!Store} counters — null when no artifact cache is
    configured, and never the cache directory path.  Incidents record
    every cell the run degraded or skipped non-fatally.  (v8 dropped
    the v4 ["gaps"] array; v9 dropped the interpreter-tier key; v10
    dropped the v7 ["daemon"] key.) *)

val schema : string
val version : int

type t

(** A document of the run with context [ctx]: its fault plan, store and
    instrumentation sink are echoed by {!to_json}. *)
val make : ctx:Ctx.t -> jobs:int option -> unit -> t

(** Record a completed harness target and its wall-clock seconds. *)
val add_target : t -> name:string -> wall_s:float -> unit

(** Record a named scalar measurement ([unit_label] e.g. ["ns/run"]). *)
val add_metric : t -> name:string -> value:float -> unit_label:string -> unit

(** One row of a recorded plan table: rank 0 and a [pr_skipped]
    diagnostic mark a candidate the planner could not estimate. *)
type plan_row = {
  pr_rank : int;
  pr_label : string;
  pr_ds : int;
  pr_ii : int;
  pr_area : int;
  pr_cycles : int;
  pr_speedup : float;
  pr_ratio : float;
  pr_skipped : string option;
}

type plan = {
  pl_benchmark : string;
  pl_objective : string;
  pl_rows : plan_row list;
}

(** Record one benchmark's ranked plan table. *)
val add_plan : t -> benchmark:string -> objective:string -> plan_row list -> unit

(** One non-fatal incident: a cell degraded or skipped during the
    run. *)
type incident = { i_site : string; i_cell : string; i_message : string }

(** Record an incident ([site]: which stage — "sweep", "plan",
    "validate"; [cell]: ["<benchmark>/<version>"]; [message]: the
    rendered diagnostic). *)
val add_incident : t -> site:string -> cell:string -> message:string -> unit

(** [time f] runs [f ()], returning its result and the elapsed
    wall-clock seconds. *)
val time : (unit -> 'a) -> 'a * float

type target = { t_name : string; t_wall_s : float }
type metric = { m_name : string; m_value : float; m_unit : string }

val targets : t -> target list
val metrics : t -> metric list
val plans : t -> plan list
val incidents : t -> incident list

(** The full document, keys in schema order. *)
val to_json : t -> string

