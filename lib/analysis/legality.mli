(** Legality of unroll-and-squash / unroll-and-jam for a nest and
    unroll factor (§4.1–§4.2): control-flow shape, invariant inner
    bounds, no outer-carried scalar dependences (induction variables
    excepted — they are rewritable), and the three-case analysis of
    array dependences against the data-set range [-(DS-1), DS-1]. *)

module Sset = Uas_ir.Stmt.Sset

type violation =
  | Inner_not_straight_line
  | Pre_post_not_straight_line
  | Inner_bounds_variant of string
  | Outer_carried_scalar of string
  | Outer_carried_array of string * Dependence.outer_distance
  | Inner_index_written
  | Outer_index_written
  | Non_unit_trip_unknown

type verdict = {
  ok : bool;
  violations : violation list;
  needs_peel : int;  (** leftover outer iterations to peel off *)
  induction_rewrites : Induction.t list;
      (** rewrites to apply before transforming *)
}

val pp_verdict : verdict Fmt.t

(** Scalars carrying values across outer iterations (upward-exposed and
    defined over the whole outer body). *)
val outer_carried_scalars : Loop_nest.pair -> Sset.t

(** The full §4.1/§4.2 check at unroll factor [ds].  Scalar and array
    checks run on the nest as it will look after the induction-variable
    rewrites reported in [induction_rewrites]. *)
val check : Loop_nest.pair -> ds:int -> verdict

(** [(check nest ~ds).ok]. *)
val transformable : Loop_nest.pair -> ds:int -> bool
