(* The target datapath model (§5.1, §6.1): an Agile-hardware style
   reconfigurable coprocessor measured in rows.

   Configuration bundles the assumptions Table 6.2 was collected under:
   - at most two memory references per clock cycle, no cache misses;
   - every register occupies one row (the prototype's conservative
     convention, discussed with Figure 6.4);
   - operators are internally pipelined (one new input per cycle).

   The per-operator delays (cycles) and areas (rows) are one fixed
   table, Opinfo's, for every target: the evaluation varies only the
   memory ports and the register packing (§6.3). *)

type t = {
  name : string;
  mem_ports : int;
  registers_per_row : int;
      (** how many registers share one row: 1 for the conservative
          prototype convention; more for packed shift registers *)
}

(** The ACEV-like default target used throughout the evaluation. *)
let default : t =
  { name = "acev";
    mem_ports = 2;
    registers_per_row = 1 }

(** A single-ported memory variant, for ablation benches. *)
let single_port : t = { default with name = "acev-1port"; mem_ports = 1 }

(** A wide-memory variant (four references per cycle). *)
let quad_port : t = { default with name = "acev-4port"; mem_ports = 4 }

(** A target that packs shift registers four to a row — §6.3 notes most
    squash registers are shift/rotate chains that pack with minimal
    interconnect, making the 1-row-per-register figures conservative. *)
let packed_registers : t =
  { default with name = "acev-packedregs"; registers_per_row = 4 }

(** Rows occupied by [n] registers on this target. *)
let register_area (t : t) n =
  (n + t.registers_per_row - 1) / t.registers_per_row

let sched_config (t : t) : Uas_dfg.Sched.config =
  { Uas_dfg.Sched.mem_ports = t.mem_ports }

(* Every field of the target: the operator tables are no part of it. *)
let fingerprint t =
  Printf.sprintf "%s/ports=%d/regrow=%d" t.name t.mem_ports
    t.registers_per_row
