(* Default hardware characteristics of the IR operators.

   The numbers model the ACEV-style row-based datapath used by the
   Nimble Compiler back end: each operator occupies some number of FPGA
   *rows* and has a latency in clock cycles.  These tables are the only
   ones: the hardware estimator (`Uas_hw`), the DFG, the stage balancer
   of unroll-and-squash and both interpreters' cycle counts read them
   directly, and Estimate.cost_model_version versions them.

   Operators are assumed internally pipelinable (a new input can be
   issued every cycle), matching §5.4 of the paper where floating-point
   operators were modeled to allow deeper pipelining. *)

open Types

(** Classification of a DFG/IR operation for delay, area and resource
    accounting. *)
type op_kind =
  | Op_binop of binop
  | Op_unop of unop
  | Op_load         (** memory read — uses a memory port *)
  | Op_store        (** memory write — uses a memory port *)
  | Op_rom          (** local-ROM lookup — LUT-implemented, no memory port *)
  | Op_select       (** 2:1 multiplexer from if-conversion *)
  | Op_move         (** register-to-register move (squash rotation) *)
  | Op_const        (** constant source *)

let op_kind_name = function
  | Op_binop o -> Printf.sprintf "binop(%s)" (binop_name o)
  | Op_unop o -> Printf.sprintf "unop(%s)" (unop_name o)
  | Op_load -> "load"
  | Op_store -> "store"
  | Op_rom -> "rom"
  | Op_select -> "select"
  | Op_move -> "move"
  | Op_const -> "const"

(** Latency in clock cycles. *)
let default_delay = function
  | Op_binop (Add | Sub | BAnd | BOr | BXor | Shl | Shr) -> 1
  | Op_binop (Lt | Le | Gt | Ge | Eq | Ne) -> 1
  | Op_binop Mul -> 2
  | Op_binop (Div | Mod) -> 8
  | Op_binop (Fadd | Fsub) -> 3
  | Op_binop Fmul -> 4
  | Op_binop Fdiv -> 12
  | Op_binop (Fcmp_lt | Fcmp_le) -> 2
  | Op_unop (Neg | BNot) -> 1
  | Op_unop Fneg -> 1
  | Op_unop (I2f | F2i) -> 2
  | Op_load -> 2
  | Op_store -> 1
  | Op_rom -> 1
  | Op_select -> 1
  | Op_move -> 0
  | Op_const -> 0

(** Cycles the interpreters charge for one operation: its latency, at
    least one. *)
let cycle_cost k = max 1 (default_delay k)

(** Area in datapath rows. *)
let default_area = function
  | Op_binop (Add | Sub) -> 2
  | Op_binop (BAnd | BOr | BXor) -> 1
  | Op_binop (Shl | Shr) -> 1
  | Op_binop (Lt | Le | Gt | Ge | Eq | Ne) -> 1
  | Op_binop Mul -> 6
  | Op_binop (Div | Mod) -> 12
  | Op_binop (Fadd | Fsub) -> 9
  | Op_binop Fmul -> 12
  | Op_binop Fdiv -> 24
  | Op_binop (Fcmp_lt | Fcmp_le) -> 3
  | Op_unop (Neg | BNot) -> 1
  | Op_unop Fneg -> 1
  | Op_unop (I2f | F2i) -> 3
  | Op_load -> 2
  | Op_store -> 2
  | Op_rom -> 2
  | Op_select -> 1
  | Op_move -> 0  (* a move is a register write; registers are costed separately *)
  | Op_const -> 0

(** Does this operation consume a memory port in the cycle it issues? *)
let uses_memory_port = function
  | Op_load | Op_store -> true
  | Op_binop _ | Op_unop _ | Op_rom | Op_select | Op_move | Op_const -> false

(** Is this node a real datapath operator for Figure 6.4-style operator
    counting (registers/moves/constants excluded)? *)
let is_real_operator = function
  | Op_move | Op_const -> false
  | Op_binop _ | Op_unop _ | Op_load | Op_store | Op_rom | Op_select -> true
