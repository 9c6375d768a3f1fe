(** The Nimble-Compiler-style driver (§5.2): generate the transformed
    versions Table 6.2 compares, estimate each, and select the best by
    the Figure 6.3 efficiency metric.

    Every version runs as a {!Uas_pass} pipeline — transform passes
    composed per version, then the quick-synthesis passes — so
    [--timings] spans cover each pass and illegal versions surface as
    structured diagnostics instead of exceptions. *)

open Uas_ir

type version =
  | Original  (** non-pipelined *)
  | Pipelined
  | Squashed of int
  | Jammed of int
  | Combined of int * int
      (** jam by the first factor, then squash by the second (§2) *)
  | Flat_squashed of int
      (** flatten the kernel pair, then squash the flattened loop — the
          enabling route for nests deeper than 2 *)

val version_name : version -> string

(** original, pipelined, squash 2/4/8/16, jam 2/4/8/16. *)
val paper_versions : version list

(** {!paper_versions} at depth 2; original, pipelined and
    flatten+squash 2/4/8 at deeper depths. *)
val versions_for : depth:int -> version list

type built = {
  bv_version : version;
  bv_program : Stmt.program;  (** complete program, still runnable *)
  bv_kernel_index : string;  (** loop index of the hardware kernel *)
}

(** Overlapped (modulo-scheduled) hardware kernel?  False only for
    [Original]. *)
val pipelined : version -> bool

(** The transformation pipeline of a version: [loop-nest] analysis then
    the squash/jam composition.  [validate] translation-validates every
    rewrite on the probe workload ({!Uas_transform.Rewrite.validated_apply}):
    a rewrite that fails validation is not applied — the pipeline
    degrades to the last-known-good program with incidents logged on
    the compilation unit. *)
val transform_passes :
  ?validate:Uas_ir.Interp.workload -> version -> Uas_pass.Pass.t list

(** The quick-synthesis pipeline: [dfg-build; schedule; estimate]. *)
val estimate_passes :
  ?target:Uas_hw.Datapath.t -> version -> Uas_pass.Pass.t list

(** Run one version's full pipeline (transform + quick synthesis),
    returning the final compilation unit alongside the built version —
    callers that go on to execute the program can reuse the unit's
    memoized {!Uas_pass.Cu.compiled} artifact.  The unit is made with
    [ctx] (default {!Uas_runtime.Ctx.default}).  [validate] as in
    {!transform_passes}; validation failures leave the result [Ok] with
    incidents on the unit. *)
val run_version_cu :
  ?ctx:Uas_runtime.Ctx.t ->
  ?target:Uas_hw.Datapath.t ->
  ?after:Uas_pass.Pass.hook ->
  ?validate:Uas_ir.Interp.workload ->
  Stmt.program ->
  outer_index:string ->
  inner_index:string ->
  version ->
  (Uas_pass.Cu.t * built * Uas_hw.Estimate.report, Uas_pass.Diag.t) result

(** The version maximizing speedup per area over the [Original]
    baseline; [None] without a baseline. *)
val select_best :
  (version * 'a * Uas_hw.Estimate.report) list ->
  (version * 'a * Uas_hw.Estimate.report) option
