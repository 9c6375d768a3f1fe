(* The perf-trajectory collector behind bench/main.exe --json: one
   schema-stable JSON document per harness run, recording what ran
   (targets with wall-clock), what was measured (named metrics), how it
   was configured (interpreter tier, pool size) and, when
   instrumentation is enabled, the full span/counter breakdown.

   The schema is versioned and deliberately free of timestamps and
   hostnames so committed snapshots diff cleanly run-to-run; bump
   [version] on any key change. *)

let schema = "uas-bench-trajectory"

(* v2: the "plans" array (ranked planner tables per benchmark).
   v3: the "incidents" array (faults recovered, cells degraded or
   skipped during the run) and the "fault_plan" key.
   v4: the "gaps" array (heuristic vs exact-search II per
   benchmark × version; dropped in v8).
   v5: the "store" key (artifact-store hit/miss/latency counters when
   a cache is installed via UAS_CACHE/--cache; null otherwise — no
   directory path, so snapshots stay machine-independent).
   v6: a third interpreter tier, since retired; documents of every
   later version have the v5 shape plus the v7 keys.
   v7: the "daemon" key (nimbled service counters — admitted, shed,
   timed-out, degraded, drained, queue depth, request latency — when
   the document comes from a daemon run; null otherwise), and the
   "store" object gains "evict_skipped" (cross-process eviction sweeps
   skipped because another process held the store lock).
   v8: the "gaps" array is gone — every pipelined II comes from one
   search that certifies it, so there is no second scheduler to
   compare against. *)
let version = 8

type target = { t_name : string; t_wall_s : float }
type metric = { m_name : string; m_value : float; m_unit : string }

type incident = {
  i_site : string;  (** where: "sweep", "plan", "validate", ... *)
  i_cell : string;  (** which cell: "<benchmark>/<version or candidate>" *)
  i_message : string;  (** the rendered diagnostic *)
}

type plan_row = {
  pr_rank : int;  (** 1-based plan order; 0 on skipped candidates *)
  pr_label : string;
  pr_ds : int;
  pr_ii : int;
  pr_area : int;
  pr_cycles : int;
  pr_speedup : float;
  pr_ratio : float;
  pr_skipped : string option;  (** the diagnostic, when skipped *)
}

type plan = {
  pl_benchmark : string;
  pl_objective : string;
  pl_rows : plan_row list;
}

type t = {
  ctx : Ctx.t;  (** source of the fault plan, store and instrumentation *)
  interp_tier : string;
  jobs : int option;
  mutable daemon_json : string option;
      (** pre-rendered daemon counter object (the [Store.stats_json]
          precedent); [None] renders as [null] *)
  mutable rev_targets : target list;
  mutable rev_metrics : metric list;
  mutable rev_plans : plan list;
  mutable rev_incidents : incident list;
}

let make ~ctx ~interp_tier ~jobs () =
  { ctx;
    interp_tier;
    jobs;
    daemon_json = None;
    rev_targets = [];
    rev_metrics = [];
    rev_plans = [];
    rev_incidents = [] }

let set_daemon_json t json = t.daemon_json <- Some json

let add_target t ~name ~wall_s =
  t.rev_targets <- { t_name = name; t_wall_s = wall_s } :: t.rev_targets

let add_metric t ~name ~value ~unit_label =
  t.rev_metrics <-
    { m_name = name; m_value = value; m_unit = unit_label } :: t.rev_metrics

let add_plan t ~benchmark ~objective rows =
  t.rev_plans <-
    { pl_benchmark = benchmark; pl_objective = objective; pl_rows = rows }
    :: t.rev_plans

let add_incident t ~site ~cell ~message =
  t.rev_incidents <-
    { i_site = site; i_cell = cell; i_message = message } :: t.rev_incidents

(** [time f] runs [f ()] and returns its result with the elapsed
    wall-clock seconds. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let targets t = List.rev t.rev_targets
let metrics t = List.rev t.rev_metrics
let plans t = List.rev t.rev_plans
let incidents t = List.rev t.rev_incidents

let esc = Instrument.json_escape

let to_json t =
  let target_json x =
    Printf.sprintf "{\"name\":\"%s\",\"wall_s\":%.6f}" (esc x.t_name)
      x.t_wall_s
  in
  let metric_json x =
    Printf.sprintf "{\"name\":\"%s\",\"value\":%.6f,\"unit\":\"%s\"}"
      (esc x.m_name) x.m_value (esc x.m_unit)
  in
  let plan_row_json (r : plan_row) =
    Printf.sprintf
      "{\"rank\":%d,\"label\":\"%s\",\"ds\":%d,\"ii\":%d,\"area\":%d,\"cycles\":%d,\"speedup\":%.4f,\"ratio\":%.4f,\"skipped\":%s}"
      r.pr_rank (esc r.pr_label) r.pr_ds r.pr_ii r.pr_area r.pr_cycles
      r.pr_speedup r.pr_ratio
      (match r.pr_skipped with
      | None -> "null"
      | Some d -> Printf.sprintf "\"%s\"" (esc d))
  in
  let plan_json (p : plan) =
    Printf.sprintf "{\"benchmark\":\"%s\",\"objective\":\"%s\",\"rows\":[%s]}"
      (esc p.pl_benchmark) (esc p.pl_objective)
      (String.concat "," (List.map plan_row_json p.pl_rows))
  in
  let incident_json (i : incident) =
    Printf.sprintf "{\"site\":\"%s\",\"cell\":\"%s\",\"message\":\"%s\"}"
      (esc i.i_site) (esc i.i_cell) (esc i.i_message)
  in
  let jobs_json =
    match t.jobs with None -> "null" | Some n -> string_of_int n
  in
  let fault_plan_json =
    match Fault.to_string t.ctx.faults with
    | "" -> "null"
    | p -> Printf.sprintf "\"%s\"" (esc p)
  in
  let store_json =
    match t.ctx.store with
    | None -> "null"
    | Some s -> Store.stats_json s
  in
  let daemon_json =
    match t.daemon_json with None -> "null" | Some j -> j
  in
  Printf.sprintf
    "{\"schema\":\"%s\",\"version\":%d,\"interp_tier\":\"%s\",\"jobs\":%s,\"fault_plan\":%s,\"store\":%s,\"daemon\":%s,\"targets\":[%s],\"metrics\":[%s],\"plans\":[%s],\"incidents\":[%s],\"instrumentation\":%s}"
    (esc schema) version (esc t.interp_tier) jobs_json fault_plan_json
    store_json daemon_json
    (String.concat "," (List.map target_json (targets t)))
    (String.concat "," (List.map metric_json (metrics t)))
    (String.concat "," (List.map plan_json (plans t)))
    (String.concat "," (List.map incident_json (incidents t)))
    (Instrument.to_json t.ctx.trace)
