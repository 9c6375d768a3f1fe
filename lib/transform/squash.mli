(** Unroll-and-squash (Chapter 4), the paper's contribution.

    For an adjacent loop pair and unroll factor DS: the inner body is
    cut into
    DS balanced stage slices; every scalar the body touches gets DS
    rotating copies; stage s always executes on copy s and a rotation
    hands each data set's whole scalar state to the next stage (copy
    DS-1 wraps to copy 0 — the round-robin of Figure 2.4 and the
    stretched backedges of Figure 4.2 as register moves).  The outer
    loop advances by DS; a prolog fills the pipeline, the steady loop
    runs DS*N - (DS-1) iterations (§4.4), an epilog drains it.

    The result is an ordinary program: it runs in the interpreter and
    computes bit-identical outputs (the test suite enforces this), and
    its inner loop maps to hardware with the *original* operator count
    plus registers only. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality

type error =
  | Illegal of Legality.verdict
  | Needs_static_trip_counts
  | Inner_loop_empty

val pp_error : error Fmt.t

type outcome = {
  program : Stmt.program;  (** the full transformed program *)
  new_inner_index : string;  (** index of the squashed steady loop *)
  new_inner_body : Stmt.t list;  (** steady-state body incl. rotation *)
  stages : Stmt.t list list;  (** the DS slices of the original body *)
  rotated : string list;  (** base scalars given rotating copies *)
  ds : int;
}

(** Apply unroll-and-squash by [ds] to [nest] inside [p].  Enabling
    rewrites (induction variables, peeling of [M mod DS] iterations)
    are applied automatically when the legality check calls for them
    ({!Peel.enable}).  [Error] when the nest does not meet the
    §4.1/§4.2 requirements.
    @raise Ir_error when [ds <= 0]. *)
val apply :
  Stmt.program -> Loop_nest.pair -> ds:int -> (outcome, error) result
