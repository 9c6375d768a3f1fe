(** Loop interchange (§3.3/§3.4): swap two adjacent loops of a
    perfectly nested pair, at any level of a nest.  Conservative
    legality via the direction-vector test at every depth. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest

type failure =
  | Not_perfect
  | Bounds_use_index
  | Carried_dependence of string

val pp_failure : failure Fmt.t

exception Interchange_error of failure

(** Interchange the nest with this outer index, the failure as data —
    the entry point the {!Rewrite} registry builds on.
    @raise Not_found when the nest is absent. *)
val apply_res : Stmt.program -> outer_index:string -> (Stmt.program, failure) result

(** [apply_res], raising.  Prefer {!apply_res} (or the registry) in new
    code.
    @raise Interchange_error when illegal
    @raise Not_found when absent. *)
val apply : Stmt.program -> outer_index:string -> Stmt.program
