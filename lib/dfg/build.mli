(** DFG construction from a straight-line loop body (§4.3, §5.3): SSA
    conversion, one node per operation, distance-1 backedges for
    loop-carried scalars, register-source nodes for live-ins, and
    memory-ordering edges disambiguated by an affine-in-the-index
    analysis. *)

open Uas_ir
module Ssa = Uas_analysis.Ssa

(** Executable meaning of each node, with ordered operands (the edge
    list does not preserve operand order).  Consumed by the
    cycle-accurate pipeline simulator. *)
type node_sem =
  | Sconst of Types.value
  | Sreg of string
      (** live-in register for this base scalar; carried registers also
          have a distance-1 backedge from the live-out definition *)
  | Sbinop of Types.binop * int * int
  | Sunop of Types.unop * int
  | Sload of Types.array_id * int
  | Sstore of Types.array_id * int * int  (** index node, value node *)
  | Srom of Types.rom_id * int
  | Sselect of int * int * int
  | Smove of int

type detailed = {
  d_graph : Graph.t;
  d_ssa : Ssa.t;
  d_sem : node_sem array;
  d_live_out_nodes : (string * int) list;
      (** base scalar -> node holding its end-of-iteration value *)
}

(** Build the DFG with full per-node semantics.
    @raise Ir_error when the body is not straight-line. *)
val build_detailed : ?inner_index:string -> Stmt.t list -> detailed

(** Build the DFG of a straight-line body.  [inner_index] enables
    memory disambiguation across iterations.  Returns the graph and the
    SSA conversion relating node labels to source names.
    @raise Ir_error when the body is not straight-line. *)
val build : ?inner_index:string -> Stmt.t list -> Graph.t * Ssa.t
