(** Data-flow graphs (Figure 4.1): nodes are datapath operations, edges
    carry the dependence distance in iterations — 0 for intra-iteration
    flow, k >= 1 for loop-carried "backedges". *)

open Uas_ir

type node = {
  id : int;
  kind : Opinfo.op_kind;
  label : string;  (** defined SSA name or an op description *)
}

type edge = {
  e_src : int;
  e_dst : int;
  e_distance : int;  (** iterations: 0 = same iteration, >=1 carried *)
}

type t = {
  nodes : node array;
  edges : edge list;
  succs : (int * int) list array;  (** per node: (dst, distance) *)
  preds : (int * int) list array;  (** per node: (src, distance) *)
}

val node_count : t -> int
val node : t -> int -> node

(** The node's {!Opinfo.default_delay}. *)
val delay : t -> int -> int

(** @raise Ir_error on malformed ids/edges. *)
val create : node list -> edge list -> t

val operator_count : t -> int
val memory_op_count : t -> int

(** Sum of the nodes' {!Opinfo.default_area}. *)
val total_operator_area : t -> int

(** Topological order of the distance-0 subgraph.
    @raise Ir_error when it has a cycle (malformed: SSA bodies are
    acyclic within an iteration). *)
val topo_order : t -> int list

(** Delay of the longest intra-iteration path. *)
val critical_path : t -> int

(** max over cycles of ceil(delay/distance); 0 without recurrences.
    The recurrence-constrained lower bound on a pipelined II.

    Computed per strongly connected component (Tarjan, iterative):
    only a component with an internal edge can hold a cycle, and each
    runs a binary search of Bellman-Ford feasibility probes over its
    own nodes and edges, up to its own [1 + Σ max 1 delay].  Its search
    starts at the best bound found so far, so a component that cannot
    raise it — every further copy of an unroll-and-jam body — costs
    one probe.  A positive-delay cycle of distance 0 (a malformed DFG)
    admits no II; the result is then the whole graph's search bound
    [1 + Σ max 1 delay]. *)
val recurrence_mii : t -> int

val pp : t Fmt.t
