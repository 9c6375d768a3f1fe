(* The cost-model-driven transform planner: enumerate legal rewrite
   sequences ending in unroll-and-squash, score each with the §5.2
   quick-synthesis estimate, and rank them by an objective.

   A candidate is an enabling prefix (hoist, if-conversion,
   scalarization, scalar cleanup, interchange — the §4.2 rewrites that
   widen squash's applicability or shrink its kernel) followed by
   squash at DS in {2, 4, 8}; the two untransformed designs (original,
   pipelined) anchor the ranking.  Every candidate runs the same
   memoized pass pipeline the sweep engine uses — analyze, the rewrite
   passes from the registry, then dfg-build/schedule/estimate — fanned
   out over the domain pool.  An illegal candidate keeps its diagnostic
   and ranks below every estimated one, so a plan table always accounts
   for the full search space. *)

module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
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
let candidates ?(factors = default_factors) ?(depth = 2) () : candidate list =
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
           factors)
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

let rewrite_passes ?validate (c : candidate) : Pass.t list =
  List.map
    (fun name ->
      if String.equal name "squash" then
        Rewrite.pass ~factor:c.c_ds ?validate "squash"
      else Rewrite.pass ?validate name)
    c.c_sequence

(* ---- plan-row serialization (artifact store) ----

   A whole scored row — outcome (report or diagnostic) and incident
   list — round-trips through a versioned line-based
   form, so a warm [plan] run replays every footnote byte-identically
   without running a single pass pipeline. *)

let severity_name = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Note -> "note"

let severity_of_name = function
  | "error" -> Some Diag.Error
  | "warning" -> Some Diag.Warning
  | "note" -> Some Diag.Note
  | _ -> None

(* one diagnostic as a single tab-separated line: String.escaped
   removes embedded tabs/newlines, and optional fields carry a -/+
   marker so [None] and [Some ""] stay distinct *)
let diag_atom (d : Diag.t) =
  let opt = function None -> "-" | Some s -> "+" ^ String.escaped s in
  String.concat "\t"
    [ severity_name d.Diag.d_severity;
      String.escaped d.Diag.d_pass;
      opt d.Diag.d_loc.Diag.loc_loop;
      opt d.Diag.d_loc.Diag.loc_stmt;
      String.escaped d.Diag.d_message ]

let diag_of_atom s : Diag.t option =
  let ( let* ) = Option.bind in
  let unesc x =
    match Scanf.unescaped x with v -> Some v | exception _ -> None
  in
  let opt = function
    | "-" -> Some None
    | x when String.length x >= 1 && Char.equal x.[0] '+' ->
      Option.map Option.some (unesc (String.sub x 1 (String.length x - 1)))
    | _ -> None
  in
  match String.split_on_char '\t' s with
  | [ sev_s; pass_s; loop_s; stmt_s; msg_s ] ->
    let* sev = severity_of_name sev_s in
    let* pass = unesc pass_s in
    let* loop = opt loop_s in
    let* stmt = opt stmt_s in
    let* msg = unesc msg_s in
    Some
      { Diag.d_severity = sev;
        d_pass = pass;
        d_loc = { Diag.loc_loop = loop; loc_stmt = stmt };
        d_message = msg }
  | _ -> None

let row_payload (row : row) =
  let b = Buffer.create 256 in
  Buffer.add_string b "plan-row 2\n";
  (match row.r_outcome with
  | Ok r ->
    Buffer.add_string b ("outcome ok " ^ Estimate.report_to_string r ^ "\n")
  | Error d -> Buffer.add_string b ("outcome err " ^ diag_atom d ^ "\n"));
  List.iter
    (fun d -> Buffer.add_string b ("incident " ^ diag_atom d ^ "\n"))
    row.r_incidents;
  Buffer.contents b

let row_of_payload (c : candidate) payload : row option =
  let ( let* ) = Option.bind in
  let strip ~prefix s =
    let np = String.length prefix in
    if String.length s >= np && String.equal (String.sub s 0 np) prefix then
      Some (String.sub s np (String.length s - np))
    else None
  in
  match String.split_on_char '\n' payload with
  | "plan-row 2" :: outcome_l :: rest ->
    let* outcome =
      match strip ~prefix:"outcome ok " outcome_l with
      | Some r_s -> Option.map Result.ok (Estimate.report_of_string r_s)
      | None -> (
        match strip ~prefix:"outcome err " outcome_l with
        | Some d_s -> Option.map Result.error (diag_of_atom d_s)
        | None -> None)
    in
    let rec incs acc = function
      | [] | [ "" ] -> Some (List.rev acc)
      | l :: rest ->
        let* d_s = strip ~prefix:"incident " l in
        let* d = diag_of_atom d_s in
        incs (d :: acc) rest
    in
    let* incidents = incs [] rest in
    Some
      { r_candidate = c;
        r_outcome = outcome;
        r_gap = None;
        r_incidents = incidents }
  | _ -> None

(* everything a scored row depends on besides the benchmark program
   text (which Cu.store_key hashes): the candidate, the kernel
   location, the datapath, the effort budgets, whether
   rewrites are translation-validated, and the cost-model version *)
let row_context ?validate ~target ~outer_index ~inner_index
    (c : candidate) =
  [ "target=" ^ Datapath.fingerprint target;
    "outer=" ^ outer_index;
    "inner=" ^ inner_index;
    "label=" ^ c.c_label;
    "seq=" ^ String.concat "+" c.c_sequence;
    "ds=" ^ string_of_int c.c_ds;
    "pipelined=" ^ string_of_bool c.c_pipelined;
    "validate=" ^ string_of_bool (Option.is_some validate);
    "cost-model=" ^ string_of_int Estimate.cost_model_version;
    "effort=" ^ string_of_int Uas_dfg.Sched.default_effort;
    "exact-effort=" ^ string_of_int Uas_dfg.Sched.default_exact_effort ]

let run_candidate ?validate ~target
    (p : Uas_ir.Stmt.program) ~outer_index ~inner_index ctx (c : candidate) :
    row =
  let cu = Cu.make ~ctx p ~outer_index ~inner_index in
  let kind = "plan-row" in
  let context =
    row_context ?validate ~target ~outer_index ~inner_index c
  in
  let cached =
    match Cu.store_get cu ~kind ~context with
    | None -> None
    | Some payload -> (
      match row_of_payload c payload with
      | Some _ as ok -> ok
      | None ->
        Cu.store_undecodable cu ~kind;
        None)
  in
  match cached with
  | Some row -> row
  | None ->
    let passes =
      (Stages.analyze :: rewrite_passes ?validate c)
      @ Stages.quick_synthesis ~target ~pipelined:c.c_pipelined
          ~name:c.c_label
    in
    let row =
      match Pass.run cu passes with
      | Ok cu -> (
        match Cu.report cu with
        | Some r ->
          { r_candidate = c;
            r_outcome = Ok r;
            r_gap = None;
            r_incidents = Cu.incidents cu }
        | None -> assert false (* the estimate pass always sets the report *)
        )
      | Error d ->
        { r_candidate = c; r_outcome = Error d; r_gap = None; r_incidents = [] }
    in
    Cu.store_put cu ~kind ~context (row_payload row);
    row

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

(** Score every candidate of the search space on the benchmark nest and
    rank by [objective] (default: [Ratio], the Figure 6.3 efficiency
    metric).  Candidates fan out over the domain pool like sweep
    versions; each runs inside a fault scope named
    ["<benchmark>/<label>"], and a task the pool gives up on ranks last
    with a [task] diagnostic instead of aborting the plan. *)
let plan ?ctx ?(target = Datapath.default) ?jobs ?(objective = Ratio)
    ?(factors = default_factors) ?validate ?timeout_s ?retries
    (p : Uas_ir.Stmt.program) ~outer_index ~inner_index ~benchmark : plan =
  let cands =
    let depth =
      Option.value ~default:2
        (Uas_analysis.Loop_nest.depth_at p outer_index)
    in
    candidates ~factors ~depth ()
  in
  let rows =
    Pass.fan_out ?ctx ?jobs ?timeout_s ?retries
      ~scope:(fun c -> benchmark ^ "/" ^ c.c_label)
      ~failed:(fun c d ->
        { r_candidate = c;
          r_outcome = Error d;
          r_gap = None;
          r_incidents = [] })
      (run_candidate ?validate ~target p ~outer_index ~inner_index)
      cands
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
