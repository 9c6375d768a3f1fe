(** Array dependence analysis (§3.2, §4.2).  Every array subscript is
    abstracted as one affine form over the loop indices (plus symbolic
    invariants), built once per access by {!form_of}.  For an adjacent
    pair, two forms over (outer, inner) are compared with ZIV /
    strong-SIV / GCD tests to bound the outer-loop dependence distance
    — the quantity the squash legality cases are stated over.  For a
    full depth-d nest, forms with one coefficient per level yield
    distance vectors and the interchange direction test.  The DFG
    builder forms its memory accesses with the same extractor. *)

open Uas_ir

(** {1 Affine subscript forms} *)

type form = {
  coeffs : int array;  (** per index, outermost first *)
  const : int;
  syms : (string * int) list;
      (** sorted loop-invariant symbols with their nonzero coefficients *)
}

(** What a name in a subscript stands for. *)
type name_class =
  | Index of int  (** the index of level k (0 = outermost) *)
  | Subst of Expr.t  (** a definition to substitute in its place *)
  | Variant  (** iteration-variant: the form is unknown *)
  | Sym of string  (** a loop-invariant symbol, compared by this name *)

(** Affine form of an expression over [levels] indices, each name
    classified by [classify]; [None] when unrecognizable. *)
val form_of :
  levels:int -> classify:(string -> name_class) -> Expr.t -> form option

(** {1 Accesses and dependent pairs} *)

type outer_distance =
  | No_dependence  (** provably never conflict *)
  | Exact of int  (** conflicts only at this outer-iteration distance *)
  | Within of int * int  (** all conflicts within this inclusive range *)
  | Any  (** unknown / unbounded *)

val pp_outer_distance : outer_distance Fmt.t

type access = {
  acc_array : Types.array_id;
  acc_index : Expr.t;
  acc_is_write : bool;
  acc_form : form option;  (** the subscript's form; [None] when unknown *)
}

(** Every potentially dependent pair of an access listing (same array,
    at least one write), including a store's self-pair. *)
val dependent_pairs : access list -> (access * access) list

(** Solve [a*di + b*dj = delta] for the range of [di], with [dj] over
    the inner index-value differences [{-(n-1)*s, ..., (n-1)*s}] when
    the inner trip count [n] is known ([s] = [inner_step], nonzero),
    and [|di| <= m-1] when the outer trip count [m] is known.  Closed
    form: its cost does not depend on the trip counts. *)
val solve_distance :
  inner_trips:int option ->
  inner_step:int ->
  outer_trips:int option ->
  int ->
  int ->
  int ->
  outer_distance

(** The dependent pairs of an adjacent pair's accesses (pre-header,
    inner body, post), each with its outer dependence distance in outer
    iterations.  Subscripts are formed over (outer, inner), with unique
    pre-header definitions substituted. *)
val all_pairs : Loop_nest.pair -> (access * access * outer_distance) list

(** {1 Depth-general view} *)

(** Every array access of a full nest, formed over all its levels: the
    bands of every level plus the innermost body.  A subscript that
    reads any scalar defined inside the nest is unknown. *)
val nest_accesses : Loop_nest.t -> access list

(** All lexicographically-positive iteration-distance vectors between
    two accesses of the same array (one entry per level, outermost
    first; all-zero loop-independent vectors dropped, leading sign
    normalized positive).  [Some []] = provably independent across
    iterations; [None] = unknown, also when the cross product of the
    per-level distance ranges exceeds the enumeration budget. *)
val distance_vectors :
  Loop_nest.t -> access -> access -> int array list option
