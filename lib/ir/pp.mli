(** C-like pretty-printing of the IR.  The program form is the surface
    syntax {!Parser} reads back, so
    [Parser.program_of_string (program_to_string p)] round-trips
    structurally. *)

(** Binding strength used when printing binary operators; {!Parser}
    uses the same table so text round-trips. *)
val prec_of_binop : Types.binop -> int

val pp_expr : Expr.t Fmt.t
val pp_program : Stmt.program Fmt.t
val expr_to_string : Expr.t -> string
val stmt_to_string : Stmt.t -> string
val program_to_string : Stmt.program -> string
