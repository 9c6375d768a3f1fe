(** Software pipelining of a single counted loop (§3.5, Figure 3.4):
    K-stage overlap of consecutive iterations with rotating register
    copies, prolog and epilog.  Conservative legality: no scalar
    recurrences, array recurrences only at distance >= K, static
    bounds. *)

open Uas_ir

type failure =
  | Not_straight_line
  | Carried_scalar of string
  | Carried_array of string
  | Too_few_iterations
  | Non_static_bounds

val pp_failure : failure Fmt.t

exception Pipeline_error of failure

(** Why pipelining this loop into [stages] stages would be illegal. *)
val failures : Stmt.loop -> stages:int -> failure list

(** Pipeline the loop with this index.  Identity when [stages <= 1].
    @raise Pipeline_error when illegal
    @raise Ir_error when the loop is absent. *)
val apply :
  ?delay_of:(Opinfo.op_kind -> int) ->
  Stmt.program ->
  index:string ->
  stages:int ->
  Stmt.program

(** [apply] with the illegality as data instead of an exception.
    @raise Ir_error when the loop is absent. *)
val apply_res :
  ?delay_of:(Opinfo.op_kind -> int) ->
  Stmt.program ->
  index:string ->
  stages:int ->
  (Stmt.program, failure) result
