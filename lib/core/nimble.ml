(* The Nimble-Compiler-style driver (§5.2): takes a kernel, generates
   the transformed versions Table 6.2 compares, estimates each with the
   quick-synthesis model, and can select the best version by a given
   figure of merit (the kernel-selection step).

   Every version is built by running a pass pipeline (Uas_pass) over a
   compilation unit: the transform passes composed per version, then
   the quick-synthesis passes (dfg-build / schedule / estimate).  A
   version whose transformation is illegal at the requested factor
   yields a structured diagnostic instead of an exception — the sweep
   reports it per version rather than silently dropping the row.

   The ten versions per benchmark: original (non-pipelined), pipelined,
   unroll-and-squash by 2/4/8/16, pipelined unroll-and-jam by
   2/4/8/16. *)

open Uas_ir
module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Instrument = Uas_runtime.Instrument
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module Rewrite = Uas_transform.Rewrite

type version =
  | Original
  | Pipelined
  | Squashed of int
  | Jammed of int
  | Combined of int * int
      (* jam by the first factor, then squash the result by the second
         (the §2 composition: operators scale with the jam factor only,
         the squash on top fills their idle slots) *)
  | Flat_squashed of int
      (* flatten the kernel pair first, then squash the flattened loop
         against the next level down — the enabling-rewrite route that
         makes a 3-deep nest squashable *)

let version_name = function
  | Original -> "original"
  | Pipelined -> "pipelined"
  | Squashed ds -> Printf.sprintf "squash(%d)" ds
  | Jammed ds -> Printf.sprintf "jam(%d)" ds
  | Combined (j, s) -> Printf.sprintf "jam(%d)+squash(%d)" j s
  | Flat_squashed ds -> Printf.sprintf "flatten+squash(%d)" ds

(** The version set of Table 6.2. *)
let paper_versions : version list =
  [ Original; Pipelined;
    Squashed 2; Squashed 4; Squashed 8; Squashed 16;
    Jammed 2; Jammed 4; Jammed 8; Jammed 16 ]

(** The default version set for a kernel nest of the given depth: the
    Table 6.2 set at depth 2; at deeper depths the squash/jam factors
    target the pair left by one flatten (squash needs a loop-free inner
    body, which the raw deep pair does not have). *)
let versions_for ~depth : version list =
  if depth <= 2 then paper_versions
  else
    [ Original; Pipelined; Flat_squashed 2; Flat_squashed 4; Flat_squashed 8 ]

type built = {
  bv_version : version;
  bv_program : Stmt.program;
  bv_kernel_index : string;  (** loop index of the hardware kernel *)
}

(** Is the version's hardware kernel overlapped (modulo-scheduled)?
    Only the original non-pipelined design is not. *)
let pipelined = function Original -> false | _ -> true

(** The transformation pipeline of a version: locate/analyze the nest,
    then the squash/jam composition, each transform a registered
    rewrite converted to a pass.  [validate] translation-validates every
    rewrite application on the given probe workload
    ({!Rewrite.validated_apply}): a rewrite whose output fails the
    check is skipped — the pipeline degrades to the last-known-good
    program with an incident logged on the unit. *)
let transform_passes ?validate (version : version) : Pass.t list =
  Stages.analyze
  ::
  (match version with
  | Original | Pipelined -> []
  | Squashed ds -> [ Rewrite.pass ~factor:ds ?validate "squash" ]
  | Jammed ds -> [ Rewrite.pass ~factor:ds ?validate "jam" ]
  | Combined (jam_ds, squash_ds) ->
    (* the squash pass re-analyzes the jammed program: the jam pass
       invalidated the loop-nest cache along with the program *)
    [ Rewrite.pass ~factor:jam_ds ?validate "jam";
      Rewrite.pass ~factor:squash_ds ?validate "squash" ]
  | Flat_squashed ds ->
    (* flatten re-points the kernel onto the fresh flat loop; the
       squash pass then re-analyzes and targets it *)
    [ Rewrite.pass ?validate "flatten";
      Rewrite.pass ~factor:ds ?validate "squash" ])

(** The quick-synthesis pipeline of a version (§5.2): DFG, schedule,
    estimate report. *)
let estimate_passes ?(target = Datapath.default) (version : version) :
    Pass.t list =
  Stages.quick_synthesis ~target ~pipelined:(pipelined version)
    ~name:(version_name version)

let built_of_cu version cu =
  { bv_version = version;
    bv_program = Cu.program cu;
    bv_kernel_index = Cu.inner_index cu }

(** Transform + quick-synthesis pipeline for one version, keeping the
    final compilation unit (whose memoized artifacts — notably the
    fast-interpreter compilation — downstream verification reuses). *)
let run_version_cu ?ctx ?(target = Datapath.default) ?after ?validate
    (p : Stmt.program) ~outer_index ~inner_index (version : version) :
    (Cu.t * built * Estimate.report, Diag.t) result =
  let cu = Cu.make ?ctx p ~outer_index ~inner_index in
  let passes =
    transform_passes ?validate version @ estimate_passes ~target version
  in
  match Pass.run ?after cu passes with
  | Ok cu -> (
    match Cu.report cu with
    | Some r -> Ok (cu, built_of_cu version cu, r)
    | None ->
      (* the estimate pass always sets the report artifact *)
      assert false)
  | Error d ->
    Instrument.incr (Cu.ctx cu).trace "sweep.illegal-versions";
    Error d

(** Kernel selection: the version maximizing speedup per area (the
    efficiency metric of Figure 6.3), given the original's report as
    the baseline. *)
let select_best (rows : (version * 'a * Estimate.report) list) :
    (version * 'a * Estimate.report) option =
  let baseline =
    List.find_map
      (fun (v, _, r) -> if v = Original then Some r else None)
      rows
  in
  match baseline with
  | None -> None
  | Some base ->
    let efficiency = Estimate.efficiency ~base in
    List.fold_left
      (fun best row ->
        let _, _, r = row in
        match best with
        | None -> Some row
        | Some (_, _, rb) ->
          if efficiency r > efficiency rb then Some row else best)
      None rows
