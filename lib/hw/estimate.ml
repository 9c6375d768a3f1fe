(* Kernel hardware estimation — the quick-synthesis step the Nimble
   Compiler uses before kernel selection (§5.2) and the source of every
   number in Table 6.2.

   Given a program and the loop index of the hardware kernel (the inner
   loop mapped to the datapath), the estimator:
   1. locates the loop and builds the DFG of its straight-line body;
   2. schedules it — resource-constrained list scheduling for a
      non-overlapped design, iterative modulo scheduling for a
      pipelined one — giving the initiation interval;
   3. counts operators, operator rows, memory references and registers;
   4. derives the total kernel execution time from the static trip
      counts of the loop and its enclosing loops. *)

open Uas_ir
module Sched = Uas_dfg.Sched
module Graph = Uas_dfg.Graph
module Build = Uas_dfg.Build

type report = {
  r_name : string;           (** program/version label *)
  r_ii : int;                (** initiation interval, cycles *)
  r_sched_len : int;         (** one-iteration schedule length *)
  r_operators : int;         (** real datapath operators *)
  r_operator_rows : int;     (** rows occupied by the operators *)
  r_registers : int;         (** register count *)
  r_area_rows : int;         (** total rows: operators + registers *)
  r_mem_refs : int;          (** memory references per kernel iteration *)
  r_kernel_iterations : int; (** total kernel iterations over the run *)
  r_total_cycles : int;      (** II * iterations: estimated execution time *)
}

let pp_report ppf r =
  Fmt.pf ppf
    "%-12s II=%-4d ops=%-4d rows=%-5d regs=%-4d mem=%-3d cycles=%d"
    r.r_name r.r_ii r.r_operators r.r_area_rows r.r_registers r.r_mem_refs
    r.r_total_cycles

exception Not_a_kernel of string

let () =
  Printexc.register_printer (function
    | Not_a_kernel m -> Some ("Not_a_kernel: " ^ m)
    | _ -> None)

(* Locate the loop with [index] and the static trip counts of every
   enclosing loop (outermost first). *)
let find_kernel (p : Stmt.program) ~index : Stmt.loop * int list =
  let static_trips (l : Stmt.loop) =
    match (Expr.simplify l.lo, Expr.simplify l.hi) with
    | Expr.Int lo, Expr.Int hi ->
      if hi <= lo then 0 else (hi - lo + l.step - 1) / l.step
    | _ -> raise (Not_a_kernel (Printf.sprintf "loop %s has dynamic bounds" l.index))
  in
  let rec scan enclosing stmts =
    List.find_map
      (fun s ->
        match s with
        | Stmt.For l when String.equal l.index index -> Some (l, List.rev enclosing)
        | Stmt.For l -> scan (static_trips l :: enclosing) l.body
        | Stmt.If (_, t, e) -> (
          match scan enclosing t with Some r -> Some r | None -> scan enclosing e)
        | Stmt.Assign _ | Stmt.Store _ -> None)
      stmts
  in
  match scan [] p.body with
  | Some r -> r
  | None -> raise (Not_a_kernel (Printf.sprintf "no loop with index %s" index))

(** Total number of times the kernel body executes across the program
    run (product of its trip count and all enclosing trip counts). *)
let kernel_iterations (p : Stmt.program) ~index : int =
  let l, enclosing = find_kernel p ~index in
  let own =
    match (Expr.simplify l.lo, Expr.simplify l.hi) with
    | Expr.Int lo, Expr.Int hi ->
      if hi <= lo then 0 else (hi - lo + l.step - 1) / l.step
    | _ -> raise (Not_a_kernel "dynamic kernel bounds")
  in
  List.fold_left ( * ) own enclosing

(* The three quick-synthesis stages; the pass pipeline (Uas_pass.Stages)
   runs them as individual passes with their intermediate artifacts
   cached on the compilation unit. *)

(** Stage 1: locate the kernel loop and build its DFG (with per-node
    semantics). *)
let kernel_detail (p : Stmt.program) ~index :
    Build.detailed =
  let l, _ = find_kernel p ~index in
  if not (Stmt.is_straight_line l.body) then
    raise
      (Not_a_kernel
         (Printf.sprintf "kernel %s body is not a single basic block" index));
  Build.build_detailed ~inner_index:l.index l.body

(** Stage 2: schedule the kernel DFG under the target's port budget.
    The returned note, when present, says a scheduling budget ran out
    (see {!Uas_dfg.Sched.modulo_schedule_note}). *)
let kernel_schedule_note ?(target = Datapath.default) ?(pipelined = true)
    ?exact_effort (detail : Build.detailed) : Sched.schedule * string option =
  let cfg = Datapath.sched_config target in
  if pipelined then
    Sched.modulo_schedule_note ~cfg ?exact_effort detail.Build.d_graph
  else (Sched.list_schedule ~cfg detail.Build.d_graph, None)

(** Stage 3: derive the report from the DFG and its schedule. *)
let assemble ?(target = Datapath.default) ?(pipelined = true) ?name
    (p : Stmt.program) ~index (detail : Build.detailed)
    (sched : Sched.schedule) : report =
  let g = detail.Build.d_graph in
  let ii = if pipelined then sched.Sched.s_ii else sched.Sched.s_length in
  let registers = Sched.register_estimate g { sched with Sched.s_ii = ii } in
  let operator_rows = Graph.total_operator_area g in
  let iterations = kernel_iterations p ~index in
  { r_name = (match name with Some n -> n | None -> p.prog_name);
    r_ii = ii;
    r_sched_len = sched.Sched.s_length;
    r_operators = Graph.operator_count g;
    r_operator_rows = operator_rows;
    r_registers = registers;
    r_area_rows = operator_rows + Datapath.register_area target registers;
    r_mem_refs = Graph.memory_op_count g;
    r_kernel_iterations = iterations;
    r_total_cycles = ii * iterations }

(** Operator share of the area, the quantity of Figure 6.4. *)
let operator_area_fraction (r : report) : float =
  if r.r_area_rows = 0 then 0.0
  else float_of_int r.r_operator_rows /. float_of_int r.r_area_rows

let speedup ~(base : report) (r : report) =
  float_of_int base.r_total_cycles /. float_of_int (max 1 r.r_total_cycles)

let area_factor ~(base : report) (r : report) =
  float_of_int r.r_area_rows /. float_of_int (max 1 base.r_area_rows)

let efficiency ~base r = speedup ~base r /. area_factor ~base r

(* hashed into every planner-row key (see the .mli) *)
let cost_model_version = 1
