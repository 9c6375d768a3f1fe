(* The compilation unit: program + memoized analyses + artifacts.
   Memoization is a per-field [option ref]-style mutable cache; the
   unit is confined to one domain (one sweep task), so no locking. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Def_use_a = Uas_analysis.Def_use
module Dependence = Uas_analysis.Dependence
module Induction = Uas_analysis.Induction
module Ctx = Uas_runtime.Ctx
module Instrument = Uas_runtime.Instrument
module Store = Uas_runtime.Store

type analysis = Nest | Def_use | Liveness | Induction | Dependence

let analysis_name = function
  | Nest -> "loop-nest"
  | Def_use -> "def-use"
  | Liveness -> "liveness"
  | Induction -> "induction"
  | Dependence -> "dependence"

let all_analyses = [ Nest; Def_use; Liveness; Induction; Dependence ]

type def_use = {
  du_upward_exposed : Stmt.Sset.t;
  du_defined : Stmt.Sset.t;
  du_loop_carried : Stmt.Sset.t;
}

type liveness = { lv_live_out : Stmt.Sset.t; lv_max_live : int }

type t = {
  cu_ctx : Ctx.t;
  cu_program : Stmt.program;
  cu_outer : string;
  cu_inner : string;
  mutable c_nest : Loop_nest.pair option;
  mutable c_def_use : def_use option;
  mutable c_liveness : liveness option;
  mutable c_induction : Induction.t list option;
  mutable c_dependence :
    (Dependence.access * Dependence.access * Dependence.outer_distance) list
    option;
  mutable c_dfg : Uas_dfg.Build.detailed option;
  mutable c_schedule : Uas_dfg.Sched.schedule option;
  mutable c_report : Uas_hw.Estimate.report option;
  mutable c_compiled : Fast_interp.compiled option;
  mutable c_hits : int;
  mutable c_misses : int;
  (* canonical program text (the Pp round-trip form), memoized because
     every store key hashes it; reset by [with_program] *)
  mutable c_text : string option;
  (* the rewrite trail: labels of every rewrite applied so far, newest
     first — the provenance half of the store key.  Survives
     [with_program] (it is how this unit's program came to be); pushed
     by Rewrite.apply after each successful application *)
  mutable c_trail : string list;
  (* non-fatal trouble logged while building this unit (validation
     mismatches, recovered faults); survives [with_program] because it
     is the unit's history, not an analysis of its program *)
  mutable c_incidents : Diag.t list;
}

let make ?(ctx = Ctx.default ()) p ~outer_index ~inner_index =
  { cu_ctx = ctx;
    cu_program = p;
    cu_outer = outer_index;
    cu_inner = inner_index;
    c_nest = None;
    c_def_use = None;
    c_liveness = None;
    c_induction = None;
    c_dependence = None;
    c_dfg = None;
    c_schedule = None;
    c_report = None;
    c_compiled = None;
    c_hits = 0;
    c_misses = 0;
    c_text = None;
    c_trail = [];
    c_incidents = [] }

let ctx cu = cu.cu_ctx
let program cu = cu.cu_program
let outer_index cu = cu.cu_outer
let inner_index cu = cu.cu_inner

let with_program ?(preserves = []) ?outer_index ?inner_index cu p =
  let keep a v = if List.mem a preserves then v else None in
  { cu with
    cu_program = p;
    cu_outer = (match outer_index with Some i -> i | None -> cu.cu_outer);
    cu_inner = (match inner_index with Some i -> i | None -> cu.cu_inner);
    c_nest = keep Nest cu.c_nest;
    c_def_use = keep Def_use cu.c_def_use;
    c_liveness = keep Liveness cu.c_liveness;
    c_induction = keep Induction cu.c_induction;
    c_dependence = keep Dependence cu.c_dependence;
    (* downstream artifacts never survive a program change *)
    c_dfg = None;
    c_schedule = None;
    c_report = None;
    c_compiled = None;
    c_text = None }

(* One memoized lookup: serve the cache or compute-and-fill, keeping
   the per-unit and global counters honest. *)
let memo cu get set compute =
  match get cu with
  | Some v ->
    cu.c_hits <- cu.c_hits + 1;
    Instrument.incr cu.cu_ctx.trace "cu.analysis-hit";
    v
  | None ->
    cu.c_misses <- cu.c_misses + 1;
    Instrument.incr cu.cu_ctx.trace "cu.analysis-miss";
    let v = compute cu in
    set cu (Some v);
    v

let nest cu =
  memo cu
    (fun c -> c.c_nest)
    (fun c v -> c.c_nest <- v)
    (fun c -> Loop_nest.find_by_outer_index c.cu_program c.cu_outer)

let def_use cu =
  memo cu
    (fun c -> c.c_def_use)
    (fun c v -> c.c_def_use <- v)
    (fun c ->
      let body = (nest c).Loop_nest.inner_body in
      { du_upward_exposed = Def_use_a.upward_exposed body;
        du_defined = Def_use_a.defined body;
        du_loop_carried = Def_use_a.loop_carried body })

let liveness cu =
  memo cu
    (fun c -> c.c_liveness)
    (fun c v -> c.c_liveness <- v)
    (fun c ->
      let body = (nest c).Loop_nest.inner_body in
      let live_out = Def_use_a.live_out_candidates body in
      { lv_live_out = live_out;
        lv_max_live = Def_use_a.max_live ~live_out body })

let induction cu =
  memo cu
    (fun c -> c.c_induction)
    (fun c v -> c.c_induction <- v)
    (fun c -> Induction.find (nest c))

let dependence cu =
  memo cu
    (fun c -> c.c_dependence)
    (fun c v -> c.c_dependence <- v)
    (fun c -> Dependence.all_pairs (nest c))

let dfg cu = cu.c_dfg
let set_dfg cu d = cu.c_dfg <- Some d
let schedule cu = cu.c_schedule
let set_schedule cu s = cu.c_schedule <- Some s
let report cu = cu.c_report
let set_report cu r = cu.c_report <- Some r

let compiled cu =
  match cu.c_compiled with
  | Some c ->
    cu.c_hits <- cu.c_hits + 1;
    Instrument.incr cu.cu_ctx.trace "cu.compiled-hit";
    c
  | None ->
    cu.c_misses <- cu.c_misses + 1;
    Instrument.incr cu.cu_ctx.trace "cu.compiled-miss";
    let c =
      Instrument.span cu.cu_ctx.trace "interp.compile" (fun () ->
          Fast_interp.compile cu.cu_program)
    in
    cu.c_compiled <- Some c;
    c

let cached cu = function
  | Nest -> Option.is_some cu.c_nest
  | Def_use -> Option.is_some cu.c_def_use
  | Liveness -> Option.is_some cu.c_liveness
  | Induction -> Option.is_some cu.c_induction
  | Dependence -> Option.is_some cu.c_dependence

let hits cu = cu.c_hits
let misses cu = cu.c_misses

let add_incident cu d =
  Instrument.incr cu.cu_ctx.trace "cu.incident";
  cu.c_incidents <- d :: cu.c_incidents

let incidents cu = List.rev cu.c_incidents

(* ---- the persistent artifact store (load/save hooks) ---- *)

let canonical_text cu =
  match cu.c_text with
  | Some t -> t
  | None ->
    let t = Pp.program_to_string cu.cu_program in
    cu.c_text <- Some t;
    t

let trail cu = List.rev cu.c_trail
let push_trail cu label = cu.c_trail <- label :: cu.c_trail

(* The one key-construction point: every part of an artifact's
   provenance — store format version, artifact kind, the rewrite trail
   that produced this program, caller context (datapath fingerprint,
   effort budgets, cost-model version, ...) and the canonical program
   text itself — goes through the same hash. *)
(* Fault specs at non-store sites change what a cell computes (an
   injected raise skips it, an injected corruption rewrites it), so
   they are part of an artifact's provenance — keying them keeps a
   chaos run from ever poisoning a clean run's entries.  The store's
   own sites model cache corruption and must leave keys alone, or an
   injected read fault could never find the entry it is meant to
   corrupt. *)
let content_fault_plan cu =
  match Uas_runtime.Fault.to_string cu.cu_ctx.faults with
  | "" -> ""
  | p ->
    String.split_on_char ',' p
    |> List.filter (fun spec ->
           let s = String.trim spec in
           not
             (String.length s >= 6
             && String.equal (String.sub s 0 6) "store."))
    |> String.concat ","

let store_key cu ~kind ~context =
  Store.key
    (("store-format=" ^ string_of_int Store.format_version)
     :: ("kind=" ^ kind)
     :: ("trail=" ^ String.concat ";" (trail cu))
     :: ("fault=" ^ content_fault_plan cu)
     :: context
    @ [ canonical_text cu ])

let store_incident cu ~kind msg =
  add_incident cu
    (Diag.errorf ~pass:"store" "cached %s artifact: %s" kind msg)

(* A payload that decodes to garbage (checksum OK but the serialized
   form's own version tag is off — next to impossible, since serializer
   versions are hashed into the key) degrades like a bad entry: the
   caller recomputes, with the incident on record.  The lookup was
   already counted by [store_get]. *)
let store_undecodable cu ~kind =
  store_incident cu ~kind "undecodable payload; recomputing"

let store_get cu ~kind ~context : string option =
  let { Ctx.store; cache_verify; faults; trace; scope } = cu.cu_ctx in
  match store with
  | None -> None
  | Some _ when cache_verify ->
    (* verify mode: always recompute; [store_put] then compares *)
    None
  | Some s -> (
    let key = store_key cu ~kind ~context in
    match Store.read ~faults ~scope s ~kind ~key with
    | Store.Hit payload ->
      Instrument.incr trace "cu.store-hit";
      Some payload
    | Store.Miss ->
      Instrument.incr trace "cu.store-miss";
      None
    | Store.Bad msg ->
      Instrument.incr trace "cu.store-miss";
      store_incident cu ~kind (msg ^ "; recomputing");
      None)

let store_put cu ~kind ~context payload =
  let { Ctx.store; cache_verify; faults; trace; scope } = cu.cu_ctx in
  match store with
  | None -> ()
  | Some s -> (
    let key = store_key cu ~kind ~context in
    if cache_verify then (
      match Store.read ~faults ~scope s ~kind ~key with
      | Store.Hit cached when String.equal cached payload ->
        Instrument.incr trace "cu.store-verify-ok"
      | Store.Hit _ ->
        Instrument.incr trace "cu.store-verify-mismatch";
        store_incident cu ~kind
          "verify: cached artifact differs from recomputation; entry \
           replaced"
      | Store.Miss -> ()
      | Store.Bad msg -> store_incident cu ~kind (msg ^ "; entry replaced"));
    match Store.write ~faults ~scope s ~kind ~key payload with
    | Ok () -> ()
    | Error msg -> store_incident cu ~kind ("write failed: " ^ msg))
