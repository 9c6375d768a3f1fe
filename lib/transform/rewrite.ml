(* The first-class rewrite interface: every loop transformation of the
   library — the paper's unroll-and-squash and all its §3/§4 relatives
   and enabling rewrites — behind one uniform, named, parameterized
   signature on the pass pipeline's compilation units.

   A rewrite separates legality ([check]) from application ([apply]):
   check answers "would this rewrite succeed here" without building the
   transformed program; apply runs check first, then transforms.  Both
   report failures as structured [Diag.t] values — an escaping
   layer-local exception is translated through [Diag.of_exn] (each
   transform module registers its failure exception's renderer), so no
   transform failure ever reaches a driver as a backtrace.

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
module Sset = Stmt.Sset

type params = {
  target : string option;
  factor : int option;
  cut : int option;
}

let default_params = { target = None; factor = None; cut = None }

type t = {
  rw_name : string;
  rw_summary : string;
  rw_section : string;
  rw_legality : string;
  rw_parameters : string;
  rw_failure_modes : string;
  rw_check : params -> Cu.t -> Diag.t option;
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

let require_cut rw_name cu p =
  match p.cut with
  | Some c -> Ok c
  | None -> Error (errf rw_name cu "missing required parameter: cut")

(* The kernel nest when the target is the unit's own outer index (the
   memoized path), any other nest by explicit lookup. *)
let nest_of cu ~outer_index =
  if String.equal outer_index (Cu.outer_index cu) then Cu.nest cu
  else Loop_nest.find_by_outer_index (Cu.program cu) outer_index

(* First loop with this index, at any depth. *)
let find_loop (p : Stmt.program) index : Stmt.loop option =
  let rec go = function
    | [] -> None
    | Stmt.For l :: rest ->
      if String.equal l.Stmt.index index then Some l
      else (match go l.body with Some l' -> Some l' | None -> go rest)
    | Stmt.If (_, th, el) :: rest -> (
      match go th with
      | Some l -> Some l
      | None -> ( match go el with Some l -> Some l | None -> go rest))
    | (Stmt.Assign _ | Stmt.Store _) :: rest -> go rest
  in
  go p.body

let ( let* ) = Result.bind

(* A check derived from the apply by discarding the transformed unit —
   for the cheap rewrites where a dedicated legality test would just
   duplicate the transformation's own validation. *)
let check_via_apply apply p cu =
  match apply p cu with Ok _ -> None | Error d -> Some d

(* ---- the catalog ---- *)

let interchange =
  let apply p cu =
    let t = outer_target cu p in
    let pr = nest_of cu ~outer_index:t in
    match Interchange.apply_res (Cu.program cu) ~outer_index:t with
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
  { rw_name = "interchange";
    rw_summary = "swap two adjacent loops of a perfect nest";
    rw_section = "§3.3/§3.4";
    rw_legality =
      "perfect nest, bounds independent of the other index, no dependence \
       carried with a direction interchange would reverse";
    rw_parameters = "target: outer index of the nest (default: kernel nest)";
    rw_failure_modes =
      "not perfectly nested; a bound uses the other index; carried \
       dependence";
    rw_check =
      (fun p cu ->
        let t = outer_target cu p in
        ignore (nest_of cu ~outer_index:t);
        match Interchange.check_at (Cu.program cu) ~outer_index:t with
        | Some f -> Some (errf "interchange" cu "%a" Interchange.pp_failure f)
        | None -> None);
    rw_apply = apply }

let tiling =
  let apply p cu =
    let* tile = require_factor "tiling" cu p in
    match Tiling.apply_res (Cu.program cu) ~index:(inner_target cu p) ~tile with
    | Ok q -> Ok (Cu.with_program cu q)
    | Error m -> Error (errf "tiling" cu "%s" m)
  in
  { rw_name = "tiling";
    rw_summary = "split one loop into a tile loop over a traversal loop";
    rw_section = "§3.3";
    rw_legality =
      "always legal (order-preserving); static bounds required when the \
       tile does not divide the trip count";
    rw_parameters =
      "target: loop index (default: kernel inner loop); factor: tile size";
    rw_failure_modes =
      "missing factor; non-positive tile; dynamic bounds with a \
       non-dividing tile; no such loop";
    rw_check = check_via_apply apply;
    rw_apply = apply }

let peel =
  let apply p cu =
    let* iterations = require_factor "peel" cu p in
    let t = outer_target cu p in
    match Peel.peel_back_res (Cu.program cu) (nest_of cu ~outer_index:t) ~iterations with
    | Ok (q, _nest) -> Ok (Cu.with_program cu q)
    | Error m -> Error (errf "peel" cu "%s" m)
  in
  { rw_name = "peel";
    rw_summary = "peel the last iterations of the nest's outer loop";
    rw_section = "§4.2";
    rw_legality = "static outer bounds; count within the trip count";
    rw_parameters =
      "target: outer index of the nest (default: kernel nest); factor: \
       iterations to peel";
    rw_failure_modes =
      "missing factor; dynamic outer bounds; peel count exceeds the trip \
       count";
    rw_check = check_via_apply apply;
    rw_apply = apply }

let fusion =
  let apply _p cu =
    match Fusion.apply_res (Cu.program cu) with
    | Ok q -> Ok (Cu.with_program cu q)
    | Error f -> Error (errf "fusion" cu "%a" Fusion.pp_failure f)
  in
  { rw_name = "fusion";
    rw_summary = "fuse the first adjacent fusable pair of loops";
    rw_section = "§3.4";
    rw_legality =
      "identical bounds; no scalar flow between the bodies; no array \
       conflict between iteration j of the second and j+d of the first";
    rw_parameters = "none";
    rw_failure_modes = "no adjacent fusable pair of loops";
    rw_check = check_via_apply apply;
    rw_apply = apply }

let distribute =
  let apply p cu =
    let* cut = require_cut "distribute" cu p in
    let index = inner_target cu p in
    guard "distribute" cu (fun () ->
        Ok (Cu.with_program cu (Distribute.apply (Cu.program cu) ~index ~cut)))
  in
  { rw_name = "distribute";
    rw_summary = "split one loop into two at a statement cut";
    rw_section = "§5.2";
    rw_legality =
      "no scalar crosses the cut; no array value flows backwards across \
       it at a later iteration";
    rw_parameters =
      "target: loop index (default: kernel inner loop); cut: statement \
       position";
    rw_failure_modes =
      "missing cut; cut out of range; scalar or array flow between the \
       groups; no such loop";
    rw_check =
      (fun p cu ->
        match require_cut "distribute" cu p with
        | Error d -> Some d
        | Ok cut -> (
          let index = inner_target cu p in
          match find_loop (Cu.program cu) index with
          | None -> Some (errf "distribute" cu "no loop with index %s" index)
          | Some l -> (
            match Distribute.failures l ~cut with
            | [] -> None
            | f :: _ -> Some (errf "distribute" cu "%a" Distribute.pp_failure f))));
    rw_apply = apply }

let flatten =
  let apply p cu =
    let t = outer_target cu p in
    let pr = nest_of cu ~outer_index:t in
    match Flatten.apply_res (Cu.program cu) ~outer_index:t with
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
  { rw_name = "flatten";
    rw_summary = "collapse a perfect static nest into one loop";
    rw_section = "§5.2";
    rw_legality = "perfect nest with static bounds (order-preserving)";
    rw_parameters = "target: outer index of the nest (default: kernel nest)";
    rw_failure_modes = "not perfectly nested; dynamic bounds";
    rw_check = check_via_apply apply;
    rw_apply = apply }

let hoist =
  let apply _p cu = Ok (Cu.with_program cu (Hoist.apply (Cu.program cu))) in
  { rw_name = "hoist";
    rw_summary = "move loop-invariant single definitions out of loops";
    rw_section = "§4.2";
    rw_legality = "always legal (restricted to statically non-empty loops)";
    rw_parameters = "none";
    rw_failure_modes = "none (fixpoint, identity when nothing moves)";
    rw_check = (fun _ _ -> None);
    rw_apply = apply }

let ifconv =
  let apply _p cu = Ok (Cu.with_program cu (Ifconv.apply (Cu.program cu))) in
  { rw_name = "ifconv";
    rw_summary = "convert scalar conditionals to straight-line selects";
    rw_section = "§4.2";
    rw_legality =
      "always legal for scalar-only arms (hardware-mux semantics: both \
       arms evaluate); others left in place";
    rw_parameters = "none";
    rw_failure_modes = "none (unconvertible conditionals are kept)";
    rw_check = (fun _ _ -> None);
    rw_apply = apply }

let scalarize =
  let apply p cu =
    let index = inner_target cu p in
    guard "scalarize" cu (fun () ->
        Ok (Cu.with_program cu (Scalarize.apply (Cu.program cu) ~index)))
  in
  { rw_name = "scalarize";
    rw_summary = "turn loop-invariant loads into pre-loop register reads";
    rw_section = "§4.2";
    rw_legality =
      "address loop-invariant and the array never stored to in the loop";
    rw_parameters = "target: loop index (default: kernel inner loop)";
    rw_failure_modes = "no such loop (ineligible loads are simply kept)";
    rw_check = check_via_apply apply;
    rw_apply = apply }

let scalar_opts =
  let apply _p cu =
    Ok (Cu.with_program cu (Scalar_opts.cleanup (Cu.program cu)))
  in
  { rw_name = "scalar-opts";
    rw_summary = "constant folding, propagation, strength reduction";
    rw_section = "§4.2";
    rw_legality = "always legal (conservative outside straight-line code)";
    rw_parameters = "none";
    rw_failure_modes = "none";
    rw_check = (fun _ _ -> None);
    rw_apply = apply }

let expand =
  let apply p cu =
    let d = Option.value p.factor ~default:0 in
    let t = outer_target cu p in
    guard "expand" cu (fun () ->
        let nest = nest_of cu ~outer_index:t in
        let prog = Cu.program cu in
        let locals = Sset.of_list (List.map fst prog.Stmt.locals) in
        let vs = Sset.inter (Expand.versioned_scalars nest) locals in
        let rename v = if Sset.mem v vs then Expand.unroll_copy v d else v in
        let decls = Expand.copy_decls prog vs (fun v -> [ Expand.unroll_copy v d ]) in
        let q =
          Stmt.add_locals
            { prog with Stmt.body = Stmt.rename_vars_list rename prog.Stmt.body }
            decls
        in
        Ok
          (Cu.with_program cu q
             ~outer_index:(rename (Cu.outer_index cu))
             ~inner_index:(rename (Cu.inner_index cu))))
  in
  { rw_name = "expand";
    rw_summary = "rename the nest's scalar state to a data-set copy space";
    rw_section = "§4.3";
    rw_legality =
      "always legal (alpha-renaming of local scalars; arrays untouched)";
    rw_parameters =
      "target: outer index of the nest (default: kernel nest); factor: \
       data-set number d (default 0), copies named v@u<d>";
    rw_failure_modes = "copy-name collision with an existing declaration";
    rw_check = check_via_apply apply;
    rw_apply = apply }

let pipeline_sw =
  let apply p cu =
    let* stages = require_factor "pipeline-sw" cu p in
    let index = inner_target cu p in
    guard "pipeline-sw" cu (fun () ->
        Ok (Cu.with_program cu (Pipeline_sw.apply (Cu.program cu) ~index ~stages)))
  in
  { rw_name = "pipeline-sw";
    rw_summary = "software-pipeline one counted loop into stages";
    rw_section = "§3.5";
    rw_legality =
      "straight-line body, no scalar recurrence, array recurrences at \
       distance >= stages, static bounds, trip count >= stages";
    rw_parameters =
      "target: loop index (default: kernel inner loop); factor: stage \
       count (identity when <= 1)";
    rw_failure_modes =
      "missing factor; recurrence; too few iterations; dynamic bounds; \
       no such loop";
    rw_check =
      (fun p cu ->
        match require_factor "pipeline-sw" cu p with
        | Error d -> Some d
        | Ok stages when stages <= 1 -> None
        | Ok stages -> (
          let index = inner_target cu p in
          match find_loop (Cu.program cu) index with
          | None -> Some (errf "pipeline-sw" cu "no loop with index %s" index)
          | Some l -> (
            match Pipeline_sw.failures l ~stages with
            | [] -> None
            | f :: _ ->
              Some (errf "pipeline-sw" cu "%a" Pipeline_sw.pp_failure f))));
    rw_apply = apply }

let unroll =
  let apply p cu =
    let* factor = require_factor "unroll" cu p in
    let index = inner_target cu p in
    guard "unroll" cu (fun () ->
        Ok (Cu.with_program cu (Unroll.apply (Cu.program cu) ~index ~factor)))
  in
  { rw_name = "unroll";
    rw_summary = "replace a loop body by factor copies";
    rw_section = "§3.4";
    rw_legality =
      "always legal; static bounds required when the factor does not \
       divide the trip count";
    rw_parameters =
      "target: loop index (default: kernel inner loop); factor: unroll \
       factor";
    rw_failure_modes =
      "missing factor; dynamic bounds with a non-dividing factor; no \
       such loop";
    rw_check = check_via_apply apply;
    rw_apply = apply }

(* The legality test squash and jam share (§4.1/§4.2), phrased exactly
   as the historical pipeline passes did — the sweep's skip footers are
   part of the table-6.2 golden output. *)
let legality_check rw_name p cu =
  match require_factor rw_name cu p with
  | Error d -> Some d
  | Ok ds when ds <= 0 -> Some (errf rw_name cu "unroll factor must be positive")
  | Ok ds -> (
    let nest = nest_of cu ~outer_index:(outer_target cu p) in
    let verdict = Legality.check nest ~ds in
    if verdict.Legality.ok then None
    else Some (errf rw_name cu "factor %d: %a" ds Legality.pp_verdict verdict))

let jam =
  let apply p cu =
    let* ds = require_factor "jam" cu p in
    let nest = nest_of cu ~outer_index:(outer_target cu p) in
    match Unroll_and_jam.apply_res (Cu.program cu) nest ~ds with
    | Ok out -> Ok (Cu.with_program cu out.Unroll_and_jam.program)
    | Error verdict ->
      Error (errf "jam" cu "factor %d: %a" ds Legality.pp_verdict verdict)
  in
  { rw_name = "jam";
    rw_summary = "unroll the outer loop by DS and fuse the inner loops";
    rw_section = "§3.4";
    rw_legality =
      "the §4.1/§4.2 condition (same as squash), after automatic \
       induction rewrites and peeling";
    rw_parameters =
      "target: outer index of the nest (default: kernel nest); factor: DS";
    rw_failure_modes = "missing factor; illegal nest (verdict violations)";
    rw_check = (fun p cu -> legality_check "jam" p cu);
    rw_apply = apply }

let squash =
  let apply p cu =
    let* ds = require_factor "squash" cu p in
    let nest = nest_of cu ~outer_index:(outer_target cu p) in
    match Squash.apply_res (Cu.program cu) nest ~ds with
    | Ok out ->
      Ok
        (Cu.with_program cu out.Squash.program
           ~inner_index:out.Squash.new_inner_index)
    | Error e ->
      Error (errf "squash" cu "factor %d: %a" ds Squash.pp_error e)
  in
  { rw_name = "squash";
    rw_summary = "unroll-and-squash: overlap DS data sets in one kernel";
    rw_section = "Ch. 4";
    rw_legality =
      "the §4.1/§4.2 condition, after automatic induction rewrites and \
       peeling; static trip counts; non-empty inner loop";
    rw_parameters =
      "target: outer index of the nest (default: kernel nest); factor: DS";
    rw_failure_modes =
      "missing factor; illegal nest (verdict violations); dynamic trip \
       counts; empty inner loop";
    rw_check = (fun p cu -> legality_check "squash" p cu);
    rw_apply = apply }

(* ---- the registry ---- *)

let registry =
  [ interchange; tiling; peel; fusion; distribute; flatten; hoist; ifconv;
    scalarize; scalar_opts; expand; pipeline_sw; unroll; jam; squash ]

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

let check ?(params = default_params) t cu : Diag.t option =
  match
    guard t.rw_name cu (fun () ->
        match t.rw_check params cu with None -> Ok () | Some d -> Error d)
  with
  | Ok () -> None
  | Error d -> Some d

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
  match check ~params t cu with
  | Some d -> Error d
  | None ->
    guard t.rw_name cu (fun () ->
        let ctx = Cu.ctx cu in
        match
          Fault.hit ctx.faults ~scope:ctx.scope ~label:t.rw_name "rewrite.apply"
        with
        | None -> t.rw_apply params cu
        | Some Fault.Stall -> Fault.stall ~site:"rewrite.apply" ()
        | Some Fault.Raise ->
          raise
            (Fault.Injected { site = "rewrite.apply"; kind = Fault.Raise })
        | Some Fault.Corrupt ->
          (* a miscompiling rewrite: succeeds, but the transformed
             program computes something else — exactly what translation
             validation exists to catch *)
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

let pass ?target ?factor ?cut ?validate n =
  to_pass ~params:{ target; factor; cut } ?validate (get n)
