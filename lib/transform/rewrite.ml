(* The first-class rewrite interface: the loop transformations the
   Nimble flow runs — the paper's unroll-and-squash, unroll-and-jam and
   the enabling rewrites the planner tries before squashing (§4.2) —
   behind one uniform, named, parameterized signature on the pass
   pipeline's compilation units.

   Each rewrite is one function: it decides legality and transforms in
   the same step, and reports a failure as a structured [Diag.t] value.
   An escaping layer-local exception (a missing loop, a bad factor) is
   translated through [Diag.of_exn], so no transform failure ever
   reaches a driver as a backtrace.  docs/TRANSFORMS.md is the catalog:
   what each rewrite reproduces, its legality test and its parameters.

   The registry, a constant list, maps stable names ("squash", "jam",
   "interchange", ...) to rewrites; [pass] converts one into a pipeline
   [Pass.t], which is how nimblec, the sweep engine, and the planner
   reach every transformation. *)

open Uas_ir
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Fault = Uas_runtime.Fault
module Instrument = Uas_runtime.Instrument
module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality

type params = {
  target : string option;
  factor : int option;
}

let default_params = { target = None; factor = None }

type t = {
  rw_name : string;
  rw_apply : params -> Cu.t -> (Cu.t, Diag.t) result;
}

let name t = t.rw_name

(* ---- plumbing shared by the catalog entries ---- *)

(* Translate an escaping layer-local exception into a diagnostic
   attributed to the rewrite; genuine bugs keep their backtrace. *)
let guard rw_name cu f =
  match f () with
  | r -> r
  | exception exn -> (
    match Diag.of_exn ~pass:rw_name ~loop:(Cu.outer_index cu) exn with
    | Some d -> Error d
    | None -> raise exn)

let errf rw_name cu fmt = Diag.errorf ~pass:rw_name ~loop:(Cu.outer_index cu) fmt

let outer_target cu p = Option.value p.target ~default:(Cu.outer_index cu)
let inner_target cu p = Option.value p.target ~default:(Cu.inner_index cu)

let require_factor rw_name cu p =
  match p.factor with
  | Some f -> Ok f
  | None -> Error (errf rw_name cu "missing required parameter: factor")

(* The kernel nest when the target is the unit's own outer index (the
   memoized path), any other nest by explicit lookup. *)
let nest_of cu ~outer_index =
  if String.equal outer_index (Cu.outer_index cu) then Cu.nest cu
  else Loop_nest.find_by_outer_index (Cu.program cu) outer_index

let ( let* ) = Result.bind

(* ---- the catalog ---- *)

let interchange =
  let apply p cu =
    let t = outer_target cu p in
    let pr = nest_of cu ~outer_index:t in
    match Interchange.apply (Cu.program cu) ~outer_index:t with
    | Error f -> Error (errf "interchange" cu "%a" Interchange.pp_failure f)
    | Ok q ->
      (* the pair's loops swapped: re-point whichever kernel index
         named one of them *)
      let outer' =
        if String.equal t (Cu.outer_index cu) then
          pr.Loop_nest.inner_index
        else Cu.outer_index cu
      in
      let inner' =
        if String.equal pr.Loop_nest.inner_index (Cu.inner_index cu) then t
        else Cu.inner_index cu
      in
      Ok (Cu.with_program cu q ~outer_index:outer' ~inner_index:inner')
  in
  { rw_name = "interchange"; rw_apply = apply }

let flatten =
  let apply p cu =
    let t = outer_target cu p in
    let pr = nest_of cu ~outer_index:t in
    match Flatten.apply (Cu.program cu) ~outer_index:t with
    | Error f -> Error (errf "flatten" cu "%a" Flatten.pp_failure f)
    | Ok (q, flat_index) ->
      (* the pair's two loops collapsed onto the fresh flat loop: any
         kernel index that named one of them now names the flat loop
         (on a deeper nest only one of them may be a kernel index) *)
      let outer' =
        if String.equal t (Cu.outer_index cu) then flat_index
        else Cu.outer_index cu
      in
      let inner' =
        if String.equal pr.Loop_nest.inner_index (Cu.inner_index cu) then
          flat_index
        else Cu.inner_index cu
      in
      Ok (Cu.with_program cu q ~outer_index:outer' ~inner_index:inner')
  in
  { rw_name = "flatten"; rw_apply = apply }

let hoist =
  let apply _p cu = Ok (Cu.with_program cu (Hoist.apply (Cu.program cu))) in
  { rw_name = "hoist"; rw_apply = apply }

let ifconv =
  let apply _p cu = Ok (Cu.with_program cu (Ifconv.apply (Cu.program cu))) in
  { rw_name = "ifconv"; rw_apply = apply }

let scalarize =
  let apply p cu =
    let index = inner_target cu p in
    Ok (Cu.with_program cu (Scalarize.apply (Cu.program cu) ~index))
  in
  { rw_name = "scalarize"; rw_apply = apply }

let scalar_opts =
  let apply _p cu =
    Ok (Cu.with_program cu (Scalar_opts.cleanup (Cu.program cu)))
  in
  { rw_name = "scalar-opts"; rw_apply = apply }

(* Squash and jam read the same parameters and fail alike: the factor
   is checked before the nest is looked up, and an illegal nest reports
   the §4.1/§4.2 verdict as "factor DS: ..." — the sweep's skip footers
   are part of the table-6.2 golden output. *)
let nest_and_factor rw_name p cu =
  let* ds = require_factor rw_name cu p in
  if ds <= 0 then Error (errf rw_name cu "unroll factor must be positive")
  else Ok (nest_of cu ~outer_index:(outer_target cu p), ds)

let jam =
  let apply p cu =
    let* nest, ds = nest_and_factor "jam" p cu in
    match Unroll_and_jam.apply (Cu.program cu) nest ~ds with
    | Ok out -> Ok (Cu.with_program cu out.Unroll_and_jam.program)
    | Error verdict ->
      Error (errf "jam" cu "factor %d: %a" ds Legality.pp_verdict verdict)
  in
  { rw_name = "jam"; rw_apply = apply }

let squash =
  let apply p cu =
    let* nest, ds = nest_and_factor "squash" p cu in
    match Squash.apply (Cu.program cu) nest ~ds with
    | Ok out ->
      Ok
        (Cu.with_program cu out.Squash.program
           ~inner_index:out.Squash.new_inner_index)
    | Error e ->
      Error (errf "squash" cu "factor %d: %a" ds Squash.pp_error e)
  in
  { rw_name = "squash"; rw_apply = apply }

(* ---- the registry ---- *)

let registry =
  [ interchange; flatten; hoist; ifconv; scalarize; scalar_opts; jam; squash ]

let all () = registry
let names () = List.map (fun r -> r.rw_name) registry
let find n = List.find_opt (fun r -> String.equal r.rw_name n) registry

let get n =
  match find n with
  | Some r -> r
  | None ->
    invalid_arg
      (Fmt.str "unknown rewrite %s (valid: %s)" n
         (String.concat ", " (names ())))

(* ---- uniform application ---- *)

(* Deterministic semantic perturbation behind the [corrupt] fault kind:
   shift the first store's index by one (store indices are always
   integer, so the program stays well-typed); a program without stores
   gets its first integer assignment bumped instead.  Either way the
   translation validator sees the probe outputs diverge — or the probe
   run go stuck on an out-of-bounds store — and degrades the cell. *)
let corrupt_program (p : Stmt.program) : Stmt.program =
  let bump e = Expr.Binop (Types.Add, e, Expr.Int 1) in
  let int_scalar v =
    List.exists
      (fun (w, ty) -> String.equal v w && Types.equal_ty ty Types.Tint)
      (p.Stmt.params @ p.Stmt.locals)
  in
  let hit = ref false in
  let pick_store = List.exists (function Stmt.Store _ -> true | _ -> false) in
  let rec exists_store ss =
    pick_store ss
    || List.exists
         (function
           | Stmt.For l -> exists_store l.Stmt.body
           | Stmt.If (_, th, el) -> exists_store th || exists_store el
           | Stmt.Assign _ | Stmt.Store _ -> false)
         ss
  in
  let corrupt_stores = exists_store p.Stmt.body in
  let rec go ss =
    List.map
      (fun s ->
        if !hit then s
        else
          match s with
          | Stmt.Store (a, idx, e) when corrupt_stores ->
            hit := true;
            Stmt.Store (a, bump idx, e)
          | Stmt.Assign (v, e) when (not corrupt_stores) && int_scalar v ->
            hit := true;
            Stmt.Assign (v, bump e)
          | Stmt.For l -> Stmt.For { l with Stmt.body = go l.Stmt.body }
          | Stmt.If (c, th, el) ->
            let th = go th in
            Stmt.If (c, th, go el)
          | Stmt.Assign _ | Stmt.Store _ -> s)
      ss
  in
  { p with Stmt.body = go p.Stmt.body }

let apply ?(params = default_params) t cu : (Cu.t, Diag.t) result =
  guard t.rw_name cu (fun () ->
      let ctx = Cu.ctx cu in
      match
        Fault.hit ctx.faults ~scope:ctx.scope ~label:t.rw_name "rewrite.apply"
      with
      | None -> t.rw_apply params cu
      | Some Fault.Stall -> Fault.stall ~site:"rewrite.apply" ()
      | Some Fault.Raise ->
        raise (Fault.Injected { site = "rewrite.apply"; kind = Fault.Raise })
      | Some Fault.Corrupt ->
        (* a miscompiling rewrite: succeeds, but the transformed program
           computes something else — exactly what translation validation
           exists to catch *)
        Result.map
          (fun cu' ->
            Cu.with_program cu'
              ~outer_index:(Cu.outer_index cu')
              ~inner_index:(Cu.inner_index cu')
              (corrupt_program (Cu.program cu')))
          (t.rw_apply params cu))

(* ---- translation validation ---- *)

let validation_fuel = Interp.default_fuel

(* Run the reference oracle and the compiled interpreter on the probe;
   any runtime error is a validation verdict, not an escaping
   exception. *)
let probe_runs (p : Stmt.program) probe =
  match
    let ref_r = Interp.run ~fuel:validation_fuel p probe in
    let fast_r =
      Fast_interp.run ~fuel:validation_fuel (Fast_interp.compile p) probe
    in
    (ref_r, fast_r)
  with
  | pair -> Ok pair
  | exception Interp.Stuck m -> Error (Printf.sprintf "probe run stuck: %s" m)
  | exception Interp.Out_of_fuel -> Error "probe run out of fuel"

let validated_apply ?(params = default_params) ~probe t cu :
    (Cu.t, Diag.t) result =
  match apply ~params t cu with
  | Error _ as e -> e
  | Ok cu' ->
    Instrument.span (Cu.ctx cu).trace "rewrite.validate" (fun () ->
        let verdict =
          match probe_runs (Cu.program cu') probe with
          | Error m -> Some m
          | Ok (post_ref, post_fast) -> (
            (* the differential: the compiled interpreter must agree
               bit-for-bit with its oracle on the transformed program *)
            match Interp.diff_results post_ref post_fast with
            | Some m -> Some (Printf.sprintf "interpreter tiers disagree: %s" m)
            | None -> (
              (* semantic preservation: the rewrite must not change
                 what the program computes (profiles legitimately
                 change, outputs never) *)
              match
                Interp.run ~fuel:validation_fuel (Cu.program cu) probe
              with
              | exception Interp.Stuck m ->
                Some (Printf.sprintf "pre-rewrite probe run stuck: %s" m)
              | exception Interp.Out_of_fuel ->
                Some "pre-rewrite probe run out of fuel"
              | pre_ref -> (
                match Interp.diff_outputs pre_ref post_ref with
                | Some m ->
                  Some (Printf.sprintf "outputs changed by rewrite: %s" m)
                | None -> None)))
        in
        match verdict with
        | None -> Ok cu'
        | Some reason ->
          (* degrade: keep the last-known-good unit and log why *)
          Instrument.incr (Cu.ctx cu).trace "rewrite.validation-failed";
          let d =
            Diag.errorf ~pass:t.rw_name ~loop:(Cu.outer_index cu)
              "validation failed, rewrite not applied: %s" reason
          in
          Cu.add_incident cu d;
          Ok cu)

let to_pass ?(params = default_params) ?validate t =
  match validate with
  | None -> Pass.v t.rw_name (fun cu -> apply ~params t cu)
  | Some probe -> Pass.v t.rw_name (fun cu -> validated_apply ~params ~probe t cu)

let pass ?target ?factor ?validate n =
  to_pass ~params:{ target; factor } ?validate (get n)
