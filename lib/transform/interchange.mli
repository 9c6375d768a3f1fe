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

(** Interchange the nest with this outer index, the failure as data.
    @raise Not_found when the nest is absent. *)
val apply : Stmt.program -> outer_index:string -> (Stmt.program, failure) result
