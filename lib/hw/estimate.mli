(** Kernel hardware estimation — the quick-synthesis step the Nimble
    flow runs before kernel selection (§5.2), and the source of every
    Table 6.2 number: II by scheduling the kernel DFG, area in rows
    (operators + registers), register count, memory references, and
    total execution time from the static trip counts. *)

open Uas_ir

type report = {
  r_name : string;
  r_ii : int;  (** initiation interval, cycles *)
  r_sched_len : int;  (** one-iteration schedule length *)
  r_operators : int;  (** real datapath operators *)
  r_operator_rows : int;
  r_registers : int;
  r_area_rows : int;  (** operators + registers *)
  r_mem_refs : int;  (** memory references per kernel iteration *)
  r_kernel_iterations : int;  (** total kernel iterations over the run *)
  r_total_cycles : int;  (** II * iterations *)
}

val pp_report : report Fmt.t

exception Not_a_kernel of string

(** The quick-synthesis flow in its three stages.  The pass pipeline
    ([Uas_pass.Stages]: dfg-build, schedule, estimate) runs them one by
    one and caches each artifact on the compilation unit; it is the one
    way to estimate a kernel. *)

(** Locate the kernel loop and build its DFG with per-node semantics.
    @raise Not_a_kernel when the loop is absent, an enclosing loop has
    dynamic bounds, or its body is not a single basic block. *)
val kernel_detail : Stmt.program -> index:string -> Uas_dfg.Build.detailed

(** Schedule a kernel DFG under the target's memory-port budget
    ([pipelined] selects modulo vs list scheduling, default true), with
    the schedule's note: [Some message] when a scheduling budget ran
    out — the greedy one (the non-overlapped
    fallback was substituted) or the exact one (the II is not proven
    optimal).  [exact_effort] is the exact search's budget. *)
val kernel_schedule_note :
  ?target:Datapath.t ->
  ?pipelined:bool ->
  ?exact_effort:int ->
  Uas_dfg.Build.detailed ->
  Uas_dfg.Sched.schedule * string option

(** Derive the report from a kernel DFG and its schedule.  [pipelined]
    selects overlapped (modulo-scheduled) execution; the Table 6.2
    "original" designs use [pipelined:false].
    @raise Not_a_kernel when the trip counts are dynamic. *)
val assemble :
  ?target:Datapath.t ->
  ?pipelined:bool ->
  ?name:string ->
  Stmt.program ->
  index:string ->
  Uas_dfg.Build.detailed ->
  Uas_dfg.Sched.schedule ->
  report

(** Operators as a fraction of total area (Figure 6.4). *)
val operator_area_fraction : report -> float

(** {2 Relative metrics (Table 6.3, Figure 6.3)}

    Every comparison against a baseline design goes through these, so
    the tables, the planner ranking and kernel selection agree. *)

(** Total-cycle speedup of [r] over [base]. *)
val speedup : base:report -> report -> float

(** Area-row increase of [r] over [base]. *)
val area_factor : base:report -> report -> float

(** [speedup /. area_factor] — the Figure 6.3 efficiency metric. *)
val efficiency : base:report -> report -> float

(** Version of the area/delay cost model; hashed into every planner-row
    cache key, so cost-model changes invalidate the reports cached in
    planner rows.  Bump it whenever the {!Uas_ir.Opinfo} tables, the register
    estimator or the report derivation change meaning. *)
val cost_model_version : int
