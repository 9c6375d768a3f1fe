(** Array dependence analysis (§3.2, §4.2).  For an adjacent-pair view,
    index expressions are abstracted as affine forms in the two loop
    indices (plus symbolic invariants) and compared with ZIV /
    strong-SIV / GCD tests to bound the outer-loop dependence distance —
    the quantity the squash legality cases are stated over.  For a full
    depth-d nest the abstraction generalizes to one coefficient per
    level, yielding distance vectors and the interchange direction
    test. *)

open Uas_ir

type affine = {
  ci : int;  (** coefficient of the outer index *)
  cj : int;  (** coefficient of the inner index *)
  c0 : int;  (** constant part *)
  sym : (string * int) list;
      (** sorted additive loop-invariant symbols with coefficients *)
}

val affine_const : int -> affine

(** Affine form of an index expression in the pair's indices, chasing
    unique pre-header definitions; [None] when unrecognizable. *)
val affine_of : Loop_nest.pair -> Expr.t -> affine option

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
  acc_in_inner : bool;  (** sits in the inner-loop body *)
}

(** Every array access of the pair, in program order. *)
val accesses : Loop_nest.pair -> access list

(** Outer dependence distance between two accesses, in outer
    iterations.  Reads-only pairs and different arrays are
    [No_dependence]. *)
val outer_distance : Loop_nest.pair -> access -> access -> outer_distance

(** All potentially dependent pairs (same array, at least one write),
    including a store's self-pair. *)
val all_pairs : Loop_nest.pair -> (access * access * outer_distance) list

(** {1 Depth-general forms} *)

type level_affine = {
  la_coeffs : int list;  (** per nest level, outermost first *)
  la_const : int;
  la_sym : (string * int) list;
}

(** Affine form of an index expression over all levels of a nest;
    conservative ([None]) when the expression reads any scalar defined
    inside the nest. *)
val level_affine_of : Loop_nest.t -> Expr.t -> level_affine option

(** Every array access of a full nest: the bands of every level plus
    the innermost body ([acc_in_inner] marks the latter). *)
val nest_accesses : Loop_nest.t -> access list

(** All lexicographically-positive iteration-distance vectors between
    two accesses (one entry per level, outermost first; all-zero
    loop-independent vectors dropped, leading sign normalized
    positive).  [Some []] = provably independent across iterations;
    [None] = unknown. *)
val distance_vectors :
  Loop_nest.t -> access -> access -> int array list option
