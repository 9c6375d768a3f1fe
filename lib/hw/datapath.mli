(** The target datapath model (§5.1, §6.1): an Agile-hardware style
    reconfigurable coprocessor measured in rows, with the Table 6.2
    assumptions bundled as a configuration.  Operator delays and areas
    are {!Uas_ir.Opinfo}'s, the same for every target. *)

type t = {
  name : string;
  mem_ports : int;  (** memory references per clock (§6.1: 2) *)
  registers_per_row : int;
      (** 1 for the conservative prototype convention; more for packed
          shift registers (§6.3) *)
}

(** The ACEV-like default target used throughout the evaluation. *)
val default : t

(** Single-ported memory, for ablations. *)
val single_port : t

(** Four memory references per cycle. *)
val quad_port : t

(** Shift registers packed four to a row. *)
val packed_registers : t

(** Rows occupied by [n] registers. *)
val register_area : t -> int -> int

val sched_config : t -> Uas_dfg.Sched.config

(** A stable identity string for cache keys: the target name, its
    memory ports and its register packing — the whole target.  The
    operator tables are no part of it; planner-row keys hash their
    version, {!Estimate.cost_model_version}. *)
val fingerprint : t -> string
