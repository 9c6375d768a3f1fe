(** First-class loop rewrites: the transformations the Nimble flow runs
    behind one named, parameterized interface on the pass pipeline's
    compilation units, plus the registry that maps stable names to
    rewrites.

    A rewrite is applied uniformly as
    [apply rw ~params cu : (Cu.t, Diag.t) result]: success is a new
    unit with the transformed program (nest and artifacts dropped, kernel
    indices re-pointed when the rewrite moved the kernel), failure is a
    structured diagnostic — never an escaping transform exception.
    Legality and transformation are one step: a rewrite finds out
    whether it applies by applying.

    Names (catalog order): interchange, flatten, hoist, ifconv,
    scalarize, scalar-opts, jam, squash.  docs/TRANSFORMS.md is
    the catalog: the section each reproduces, its legality test, its
    parameters and its failure modes. *)

module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass

(** Parameters of a rewrite application.  [target] names the loop the
    rewrite acts on — the nest's outer index for nest rewrites, the
    loop's own index for single-loop rewrites — and defaults to the
    unit's kernel ([Cu.outer_index] / [Cu.inner_index] respectively).
    [factor] is the unroll factor DS of squash and jam.  A rewrite that
    needs a missing parameter fails with a diagnostic, not an
    exception. *)
type params = {
  target : string option;
  factor : int option;
}

(** All fields [None]: every rewrite acts on the kernel nest, and squash
    and jam miss their factor. *)
val default_params : params

(** A named, parameterized loop rewrite.  [rw_apply] is the raw
    callback — use {!apply}, which adds the fault site and the
    exception guard. *)
type t = {
  rw_name : string;  (** stable registry/pass name *)
  rw_apply : params -> Cu.t -> (Cu.t, Diag.t) result;
}

val name : t -> string

(** Apply the rewrite once: the transformed unit, or the diagnostic
    saying why the rewrite does not apply here.  Escaping layer-local
    exceptions are translated like pass failures ({!Diag.of_exn});
    unrecognized exceptions (genuine bugs) propagate.  On success the
    unit's kernel indices follow the kernel (squash's fresh steady
    index, interchange's swap, flattening's collapse).

    The application runs at the fault-injection site [rewrite.apply]
    (label: the rewrite name); the [corrupt] kind makes a successful
    application return a deterministically-miscompiled program — the
    scenario {!validated_apply} exists to catch. *)
val apply : ?params:params -> t -> Cu.t -> (Cu.t, Diag.t) result

(** {!apply} followed by translation validation on the [probe]
    workload: the reference oracle {!Uas_ir.Interp} and the compiled
    interpreter both run the transformed program and must agree
    bit-for-bit ([Interp.diff_results]), and the rewrite must preserve
    the program's outputs ([Interp.diff_outputs] against a pre-rewrite
    reference run — profiles legitimately change under a rewrite,
    outputs never).

    On a validation failure — including a probe run going [Stuck] or
    out of fuel — the rewrite is {e not} applied: the pre-rewrite unit
    is returned ([Ok], so the pipeline continues on the last-known-good
    program), the failure is logged on it as a {!Cu.add_incident}
    diagnostic (which the sweep and planner render as a
    [degraded:] footer), and [rewrite.validation-failed] is counted.
    Validation runs under a [rewrite.validate] instrumentation span. *)
val validated_apply :
  ?params:params ->
  probe:Uas_ir.Interp.workload ->
  t ->
  Cu.t ->
  (Cu.t, Diag.t) result

(** {2 Registry} *)

(** Every rewrite, in catalog order (a constant list). *)
val all : unit -> t list

(** The rewrite names, in catalog order — these are also valid
    [--dump-after] selectors in nimblec. *)
val names : unit -> string list

val find : string -> t option

(** @raise Invalid_argument on unknown names, listing the valid ones. *)
val get : string -> t

(** {2 Pipeline integration} *)

(** The rewrite as a pipeline pass named [rw_name].  [validate] makes
    the pass use {!validated_apply} with the given probe workload. *)
val to_pass : ?params:params -> ?validate:Uas_ir.Interp.workload -> t -> Pass.t

(** [pass ?target ?factor ?validate name] looks the rewrite up and
    converts it: [pass ~factor:4 "squash"] is the historical squash
    pipeline pass.  @raise Invalid_argument on unknown names. *)
val pass :
  ?target:string ->
  ?factor:int ->
  ?validate:Uas_ir.Interp.workload ->
  string ->
  Pass.t
