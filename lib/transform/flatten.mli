(** Loop flattening (coalescing, §5.2): collapse a perfect static
    adjacent loop pair — at any level of a nest — into one loop over
    the combined iteration space, the original indices recomputed by
    division/modulus.  Always legal for perfect pairs (traversal order
    unchanged); on a deeper nest, flattening the top pair reduces the
    depth by one, so repeated flattening reaches the loop-pair shape
    squash needs. *)

open Uas_ir

type failure = Not_perfect | Non_static_bounds

val pp_failure : failure Fmt.t

(** Flatten the nest with this outer index, also returning the fresh
    flattened index (callers maintaining a current-kernel pointer need
    it); [Error] on imperfect or dynamic nests.
    @raise Not_found when absent. *)
val apply :
  Stmt.program -> outer_index:string -> (Stmt.program * string, failure) result
