(** Hardware characteristics of the IR operators: latency in cycles and
    area in datapath rows (the ACEV-style model of §5.1 and §6.1), one
    table for every target; operators are assumed internally pipelined
    (one new input per cycle). *)

open Types

type op_kind =
  | Op_binop of binop
  | Op_unop of unop
  | Op_load  (** memory read — uses a memory port *)
  | Op_store  (** memory write — uses a memory port *)
  | Op_rom  (** local-ROM lookup — LUT-implemented, no port *)
  | Op_select  (** 2:1 multiplexer from if-conversion *)
  | Op_move  (** register-to-register move (squash rotation) *)
  | Op_const  (** constant source *)

val op_kind_name : op_kind -> string

(** Latency in clock cycles (0 for moves and constants). *)
val default_delay : op_kind -> int

(** Cycles an interpreter charges for the operation:
    [max 1 (default_delay k)]. *)
val cycle_cost : op_kind -> int

(** Area in datapath rows (0 for moves — registers are costed
    separately — and constants). *)
val default_area : op_kind -> int

(** Consumes a memory port in its issue cycle? *)
val uses_memory_port : op_kind -> bool

(** A real datapath operator for Figure 6.4-style counting
    (moves/constants excluded)? *)
val is_real_operator : op_kind -> bool
