(* The cost-model-driven transform planner: enumerate legal rewrite
   sequences ending in unroll-and-squash, score each with the §5.2
   quick-synthesis estimate, and rank them by an objective.

   A candidate is an enabling prefix (hoist, if-conversion,
   scalarization, scalar cleanup, interchange — the §4.2 rewrites that
   widen squash's applicability or shrink its kernel) followed by
   squash at DS in {2, 4, 8}; the two untransformed designs (original,
   pipelined) anchor the ranking.  Candidates run the pass pipeline the
   sweep engine uses — analyze, the rewrite passes from the registry,
   then dfg-build/schedule/estimate — in two fan-outs over the domain
   pool: each candidate's analysis and enabling prefix is its own, but
   the squash and quick synthesis are shared by every candidate whose
   prefix reaches the same program (see [plan]).  An illegal candidate
   keeps its diagnostic and ranks below every estimated one, so a plan
   table always accounts for the full search space.  Each scored row
   is kept in the persistent store as a Uas_runtime.Record, so a warm
   plan runs no pass at all. *)

module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module Record = Uas_runtime.Record
module Rewrite = Uas_transform.Rewrite

type objective = Ii | Area | Ratio

let objective_name = function Ii -> "ii" | Area -> "area" | Ratio -> "ratio"

let objective_of_string = function
  | "ii" -> Some Ii
  | "area" -> Some Area
  | "ratio" -> Some Ratio
  | _ -> None

(** A point of the search space: the rewrite sequence (registry names;
    squash last carries the factor) and the squash factor, or one of
    the two baselines at [ds = 1]. *)
type candidate = {
  c_label : string;
  c_sequence : string list;  (** registry names, applied in order *)
  c_ds : int;  (** squash factor; 1 on the baselines *)
  c_pipelined : bool;  (** modulo-scheduled kernel? *)
}

(** The enabling prefixes the planner explores, each a registry-name
    sequence. *)
let enabling_prefixes : string list list =
  [ []; [ "hoist" ]; [ "ifconv" ]; [ "scalarize" ]; [ "scalar-opts" ];
    [ "interchange" ]; [ "hoist"; "scalar-opts" ] ]

let default_factors = [ 2; 4; 8 ]

let label_of sequence ds =
  match sequence with
  | [] -> Printf.sprintf "squash(%d)" ds
  | prefix ->
    Printf.sprintf "%s+squash(%d)" (String.concat "+" prefix) ds

(** The search space for a kernel nest of the given depth (default 2).
    Deeper nests prepend one flatten per extra level to every prefix:
    squash needs an adjacent pair with a loop-free inner body, and each
    flatten collapses the top pair, so depth d takes d-2 of them. *)
let candidates ?(depth = 2) () : candidate list =
  let flatten_prefix = List.init (max 0 (depth - 2)) (fun _ -> "flatten") in
  { c_label = "original"; c_sequence = []; c_ds = 1; c_pipelined = false }
  :: { c_label = "pipelined"; c_sequence = []; c_ds = 1; c_pipelined = true }
  :: List.concat_map
       (fun prefix ->
         let prefix = flatten_prefix @ prefix in
         List.map
           (fun ds ->
             { c_label = label_of prefix ds;
               c_sequence = prefix @ [ "squash" ];
               c_ds = ds;
               c_pipelined = true })
           default_factors)
       enabling_prefixes

(** One scored candidate: the estimate report, or the diagnostic of the
    pass that rejected it.  [r_incidents] carries the non-fatal trouble
    the candidate's pipeline degraded around (rewrites rejected by
    translation validation) — its report then describes the
    last-known-good program of the sequence. *)
type row = {
  r_candidate : candidate;
  r_outcome : (Estimate.report, Diag.t) result;
  r_gap : (int * Uas_dfg.Sched.exact) option;
      (** always [None]; kept only for the frozen perf harness *)
  r_incidents : Diag.t list;
}

type plan = {
  p_benchmark : string;
  p_objective : objective;
  p_baseline : Estimate.report option;  (** the original design's report *)
  p_rows : row list;  (** ranked, best first; skipped candidates last *)
}

(* ---- the plan-row payload (artifact store) ----

   A whole scored row round-trips through the store as a Record, so a
   warm [plan] run replays every footnote byte-identically without
   running a single pass pipeline: the report's ten fields, or one
   [error] field, then one [incident] field per incident, in order.  A
   diagnostic is one field whose value is its own record: [pass],
   [loop] only when the diagnostic names one, and [message]. *)

let diag_field (d : Diag.t) =
  let loop = Option.to_list (Option.map (fun l -> ("loop", l)) d.d_loop) in
  Record.encode ((("pass", d.d_pass) :: loop) @ [ ("message", d.d_message) ])

let diag_of_field v : Diag.t option =
  match Record.decode v with
  | Error _ -> None
  | Ok r -> (
    match (Record.find "pass" r, Record.find "message" r) with
    | Some d_pass, Some d_message ->
      Some { Diag.d_pass; d_loop = Record.find "loop" r; d_message }
    | _ -> None)

let row_fields (row : row) =
  let int = string_of_int in
  (match row.r_outcome with
  | Ok (r : Estimate.report) ->
    [ ("name", r.r_name);
      ("ii", int r.r_ii);
      ("len", int r.r_sched_len);
      ("ops", int r.r_operators);
      ("oprows", int r.r_operator_rows);
      ("regs", int r.r_registers);
      ("area", int r.r_area_rows);
      ("mem", int r.r_mem_refs);
      ("iters", int r.r_kernel_iterations);
      ("cycles", int r.r_total_cycles) ]
  | Error d -> [ ("error", diag_field d) ])
  @ List.map (fun d -> ("incident", diag_field d)) row.r_incidents

let report_of_fields r : Estimate.report option =
  let ( let* ) = Option.bind in
  let int k = Record.int k r in
  let* r_name = Record.find "name" r in
  let* r_ii = int "ii" in
  let* r_sched_len = int "len" in
  let* r_operators = int "ops" in
  let* r_operator_rows = int "oprows" in
  let* r_registers = int "regs" in
  let* r_area_rows = int "area" in
  let* r_mem_refs = int "mem" in
  let* r_kernel_iterations = int "iters" in
  let* r_total_cycles = int "cycles" in
  Some
    { Estimate.r_name;
      r_ii;
      r_sched_len;
      r_operators;
      r_operator_rows;
      r_registers;
      r_area_rows;
      r_mem_refs;
      r_kernel_iterations;
      r_total_cycles }

let row_of_fields (c : candidate) r : row option =
  let ( let* ) = Option.bind in
  let* outcome =
    match Record.find "error" r with
    | Some d -> Option.map Result.error (diag_of_field d)
    | None -> Option.map Result.ok (report_of_fields r)
  in
  let fields = Record.all "incident" r in
  let incidents = List.filter_map diag_of_field fields in
  if List.compare_lengths incidents fields <> 0 then None
  else
    Some
      { r_candidate = c;
        r_outcome = outcome;
        r_gap = None;
        r_incidents = incidents }

(* everything a scored row depends on besides the benchmark program
   (whose digest Cu hashes into every key): the candidate, the kernel
   location, the effort budgets, whether rewrites are
   translation-validated, and the cost-model version *)
let row_context ?validate ~outer_index ~inner_index (c : candidate) =
  [ "outer=" ^ outer_index;
    "inner=" ^ inner_index;
    "label=" ^ c.c_label;
    "seq=" ^ String.concat "+" c.c_sequence;
    "ds=" ^ string_of_int c.c_ds;
    "pipelined=" ^ string_of_bool c.c_pipelined;
    "validate=" ^ string_of_bool (Option.is_some validate);
    "cost-model=" ^ string_of_int Estimate.cost_model_version;
    "effort=" ^ string_of_int Uas_dfg.Sched.default_effort;
    "exact-effort=" ^ string_of_int Uas_dfg.Sched.default_exact_effort ]

(* The candidate's rewrites split before the final squash: the enabling
   prefix (every rewrite but the squash) and the squash factor, [None]
   on the baselines. *)
let split_squash (c : candidate) =
  match List.rev c.c_sequence with
  | "squash" :: rev_prefix -> (List.rev rev_prefix, Some c.c_ds)
  | _ -> (c.c_sequence, None)

(* Phase 1's answer for one candidate: a finished row (served from the
   store, or its prefix failed), or its unit after the enabling prefix,
   together with the original unit and context its plan row is stored
   under. *)
type prefixed =
  | Row of row
  | Prefixed of {
      p_row_unit : Cu.t;
      p_context : string list;
      p_unit : Cu.t;
      p_incidents : Diag.t list;
          (* [p_unit]'s, read before phase 2 can log more on it *)
    }

let error_row c d =
  { r_candidate = c; r_outcome = Error d; r_gap = None; r_incidents = [] }

let prefix_candidate ?validate (p : Uas_ir.Stmt.program) ~outer_index
    ~inner_index ctx (c : candidate) : prefixed =
  let cu = Cu.make ~ctx p ~outer_index ~inner_index in
  let context = row_context ?validate ~outer_index ~inner_index c in
  match
    Cu.store_get cu ~kind:"plan-row" ~context ~decode:(row_of_fields c)
  with
  | Some row -> Row row
  | None -> (
    let prefix, _ = split_squash c in
    let passes =
      Stages.analyze
      :: List.map (fun name -> Rewrite.pass ?validate name) prefix
    in
    match Pass.run cu passes with
    | Ok u ->
      Prefixed
        { p_row_unit = cu;
          p_context = context;
          p_unit = u;
          p_incidents = Cu.incidents u }
    | Error d ->
      let row = error_row c d in
      Cu.store_put cu ~kind:"plan-row" ~context (row_fields row);
      Row row)

(* Phase 2 for one group: squash the first member's prefixed unit and
   quick-synthesize it.  The answer is the outcome plus the incidents
   this evaluation added on top of that member's prefix incidents. *)
let evaluate ?validate ((c : candidate), u) =
  let squash =
    match split_squash c with
    | _, Some factor -> [ Rewrite.pass ~factor ?validate "squash" ]
    | _, None -> []
  in
  let passes =
    squash
    @ Stages.quick_synthesis ~target:Datapath.default ~pipelined:c.c_pipelined
        ~name:c.c_label
  in
  (* a rewrite that degrades logs on its input unit, so count first *)
  let before = List.length (Cu.incidents u) in
  match Pass.run u passes with
  | Error d -> (Error d, [])
  | Ok final -> (
    match Cu.report final with
    | Some r ->
      (Ok r, List.filteri (fun i _ -> i >= before) (Cu.incidents final))
    | None -> assert false (* the estimate pass always sets the report *))

(* ---- metrics and ranking ---- *)

let ratio = Estimate.efficiency

(* Smaller key ranks first; ties break deterministically on II, cycles,
   area, and finally the label, so plan tables are reproducible across
   domain pools. *)
let rank_key objective ~base (row : row) =
  match row.r_outcome with
  | Error _ -> (infinity, (max_int, max_int, max_int, row.r_candidate.c_label))
  | Ok r ->
    let primary =
      match objective with
      | Ii -> float_of_int r.Estimate.r_ii
      | Area -> float_of_int r.Estimate.r_area_rows
      | Ratio -> (
        match base with Some b -> -.ratio ~base:b r | None -> 0.0)
    in
    ( primary,
      ( r.Estimate.r_ii,
        r.Estimate.r_total_cycles,
        r.Estimate.r_area_rows,
        row.r_candidate.c_label ) )

(* What squash and quick synthesis compute from: the prefixed program,
   its kernel nest, the squash factor and the scheduling mode. *)
let group_key (c : candidate) u =
  ( Cu.digest u,
    Cu.outer_index u,
    Cu.inner_index u,
    snd (split_squash c),
    c.c_pipelined )

(** Score every candidate of the search space on the benchmark nest and
    rank by [objective] (default: [Ratio], the Figure 6.3 efficiency
    metric).  Phase 1 fans out one task per candidate, in the scope
    ["<benchmark>/<label>"]; phase 2 one task per distinct {!group_key},
    in its first member's scope, and every member shares its outcome.
    A task the pool gives up on ranks last with a [task] diagnostic
    instead of aborting the plan. *)
let plan ?ctx ?jobs ?(objective = Ratio) ?validate ?timeout_s
    (p : Uas_ir.Stmt.program) ~outer_index ~inner_index ~benchmark : plan =
  let cands =
    let depth =
      Option.value ~default:2
        (Uas_analysis.Loop_nest.depth_at p outer_index)
    in
    candidates ~depth ()
  in
  let scope c = benchmark ^ "/" ^ c.c_label in
  let prefixed =
    Pass.fan_out ?ctx ?jobs ?timeout_s ~scope
      ~failed:(fun c d -> Row (error_row c d))
      (prefix_candidate ?validate p ~outer_index ~inner_index)
      cands
  in
  let groups =
    List.fold_left2
      (fun groups c -> function
        | Row _ -> groups
        | Prefixed { p_unit = u; _ } ->
          let key = group_key c u in
          if List.mem_assoc key groups then groups else (key, (c, u)) :: groups)
      [] cands prefixed
    |> List.rev
  in
  (* the unit already carries its member's scoped context *)
  let outcomes =
    Pass.fan_out ?ctx ?jobs ?timeout_s
      ~scope:(fun (_, (c, _)) -> scope c)
      ~failed:(fun _ d -> Error d)
      (fun _ (_, first) -> Ok (evaluate ?validate first))
      groups
    |> List.map2 (fun (key, _) o -> (key, o)) groups
  in
  let rows =
    List.map2
      (fun c -> function
        | Row row -> row
        | Prefixed { p_row_unit; p_context; p_unit; p_incidents } -> (
          match List.assoc (group_key c p_unit) outcomes with
          | Error d -> error_row c d (* the pool gave up: never stored *)
          | Ok (outcome, added) ->
            let row =
              match outcome with
              | Ok r ->
                { r_candidate = c;
                  r_outcome = Ok { r with Estimate.r_name = c.c_label };
                  r_gap = None;
                  r_incidents = p_incidents @ added }
              | Error d -> error_row c d
            in
            Cu.store_put p_row_unit ~kind:"plan-row" ~context:p_context
              (row_fields row);
            row))
      cands prefixed
  in
  let baseline =
    List.find_map
      (fun row ->
        match (row.r_candidate.c_label, row.r_outcome) with
        | "original", Ok r -> Some r
        | _ -> None)
      rows
  in
  let ranked =
    List.stable_sort
      (fun a b ->
        compare (rank_key objective ~base:baseline a)
          (rank_key objective ~base:baseline b))
      rows
  in
  { p_benchmark = benchmark;
    p_objective = objective;
    p_baseline = baseline;
    p_rows = ranked }

(** The rank (1-based, in plan order) of the first estimated row whose
    label satisfies the predicate. *)
let rank_of (plan : plan) f : int option =
  let rec go k = function
    | [] -> None
    | { r_candidate; r_outcome = Ok _; _ } :: _ when f r_candidate -> Some k
    | _ :: rest -> go (k + 1) rest
  in
  go 1 plan.p_rows

(* ---- rendering ---- *)

let pp ppf (plan : plan) =
  Fmt.pf ppf "plan for %s (objective: %s)@." plan.p_benchmark
    (objective_name plan.p_objective);
  Fmt.pf ppf "%-4s %-28s %4s %6s %6s %8s %8s %7s %7s@." "rank" "plan" "DS"
    "II" "sched" "area" "cycles" "speedup" "ratio";
  let rank = ref 0 in
  List.iter
    (fun row ->
      match row.r_outcome with
      | Ok r ->
        incr rank;
        let sp, rt =
          match plan.p_baseline with
          | Some base -> (Estimate.speedup ~base r, ratio ~base r)
          | None -> (1.0, 1.0)
        in
        Fmt.pf ppf "%-4d %-28s %4d %6d %6d %8d %8d %7.2f %7.2f@." !rank
          row.r_candidate.c_label row.r_candidate.c_ds r.Estimate.r_ii
          r.Estimate.r_sched_len r.Estimate.r_area_rows
          r.Estimate.r_total_cycles sp rt
      | Error _ -> ())
    plan.p_rows;
  List.iter
    (fun row ->
      List.iter
        (fun d ->
          Fmt.pf ppf "degraded: %s — %a@." row.r_candidate.c_label Diag.pp d)
        row.r_incidents)
    plan.p_rows;
  let skipped =
    List.filter_map
      (fun row ->
        match row.r_outcome with
        | Error d -> Some (row.r_candidate.c_label, d)
        | Ok _ -> None)
      plan.p_rows
  in
  List.iter
    (fun (label, d) -> Fmt.pf ppf "skipped: %s — %a@." label Diag.pp d)
    skipped
