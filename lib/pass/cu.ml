(* The compilation unit: program + memoized kernel nest + artifacts.
   Memoization is a per-field mutable cache; the unit is confined to
   one domain (one sweep task), so no locking. *)

open Uas_ir
module Loop_nest = Uas_analysis.Loop_nest
module Ctx = Uas_runtime.Ctx
module Instrument = Uas_runtime.Instrument
module Store = Uas_runtime.Store
module Record = Uas_runtime.Record

type t = {
  cu_ctx : Ctx.t;
  cu_program : Stmt.program;
  cu_outer : string;
  cu_inner : string;
  mutable c_nest : Loop_nest.pair option;
  mutable c_dfg : Uas_dfg.Build.detailed option;
  mutable c_schedule : Uas_dfg.Sched.schedule option;
  mutable c_report : Uas_hw.Estimate.report option;
  mutable c_compiled : Fast_interp.compiled option;
  mutable c_hits : int;
  mutable c_misses : int;
  (* the program's structural digest ([Encode.digest]), memoized
     because every store key and planner group key reads it; reset by
     [with_program] *)
  mutable c_digest : Digest.t option;
  (* non-fatal trouble logged while building this unit (validation
     mismatches, recovered faults); survives [with_program] because it
     is the unit's history, not a fact about its program *)
  mutable c_incidents : Diag.t list;
}

let make ?(ctx = Ctx.default ()) p ~outer_index ~inner_index =
  { cu_ctx = ctx;
    cu_program = p;
    cu_outer = outer_index;
    cu_inner = inner_index;
    c_nest = None;
    c_dfg = None;
    c_schedule = None;
    c_report = None;
    c_compiled = None;
    c_hits = 0;
    c_misses = 0;
    c_digest = None;
    c_incidents = [] }

let ctx cu = cu.cu_ctx
let program cu = cu.cu_program
let outer_index cu = cu.cu_outer
let inner_index cu = cu.cu_inner

let with_program ?outer_index ?inner_index cu p =
  { cu with
    cu_program = p;
    cu_outer = (match outer_index with Some i -> i | None -> cu.cu_outer);
    cu_inner = (match inner_index with Some i -> i | None -> cu.cu_inner);
    (* nothing computed from the old program survives a change *)
    c_nest = None;
    c_dfg = None;
    c_schedule = None;
    c_report = None;
    c_compiled = None;
    c_digest = None }

(* One memoized lookup ([nest], [compiled]): serve the cache or
   compute-and-fill, keeping the per-unit and global counters honest. *)
let memo cu ~hit ~miss cached fill compute =
  match cached with
  | Some v ->
    cu.c_hits <- cu.c_hits + 1;
    Instrument.incr cu.cu_ctx.trace hit;
    v
  | None ->
    cu.c_misses <- cu.c_misses + 1;
    Instrument.incr cu.cu_ctx.trace miss;
    let v = compute () in
    fill v;
    v

let nest cu =
  memo cu ~hit:"cu.nest-hit" ~miss:"cu.nest-miss" cu.c_nest
    (fun n -> cu.c_nest <- Some n)
    (fun () -> Loop_nest.find_by_outer_index cu.cu_program cu.cu_outer)

let compiled cu =
  memo cu ~hit:"cu.compiled-hit" ~miss:"cu.compiled-miss" cu.c_compiled
    (fun c -> cu.c_compiled <- Some c)
    (fun () ->
      Instrument.span cu.cu_ctx.trace "interp.compile" (fun () ->
          Fast_interp.compile cu.cu_program))

let dfg cu = cu.c_dfg
let set_dfg cu d = cu.c_dfg <- Some d
let schedule cu = cu.c_schedule
let set_schedule cu s = cu.c_schedule <- Some s
let report cu = cu.c_report
let set_report cu r = cu.c_report <- Some r

let hits cu = cu.c_hits
let misses cu = cu.c_misses

let add_incident cu d =
  Instrument.incr cu.cu_ctx.trace "cu.incident";
  cu.c_incidents <- d :: cu.c_incidents

let incidents cu = List.rev cu.c_incidents

(* ---- the persistent artifact store (load/save hooks) ---- *)

let digest cu =
  match cu.c_digest with
  | Some d -> d
  | None ->
    let d = Encode.digest cu.cu_program in
    cu.c_digest <- Some d;
    d

let canonical_text cu = Pp.program_to_string cu.cu_program

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

(* The one key-construction point: everything an artifact is computed
   from — store format version, artifact kind, the content fault plan,
   caller context (datapath fingerprint, kernel index, effort budgets,
   cost-model version, ...) and the program digest — goes
   through the same hash.  How the program was reached is not part of
   it, so two rewrite sequences that produce the same program share its
   artifacts. *)
let store_key cu ~kind ~context =
  Store.key
    (("store-format=" ^ string_of_int Store.format_version)
     :: ("kind=" ^ kind)
     :: ("fault=" ^ content_fault_plan cu)
     :: context
    @ [ "program=" ^ Digest.to_hex (digest cu) ])

let store_incident cu ~kind msg =
  add_incident cu
    (Diag.errorf ~pass:"store" "cached %s artifact: %s" kind msg)

(* A payload that does not decode — the checksum matched, so the
   entry is intact, but its fields are not what the caller reads (a
   field change shipped without a [Store.format_version] bump) — is a
   miss like a bad entry: the caller recomputes, with the incident on
   record.  The lookup still counts as a hit. *)
let store_get cu ~kind ~context ~decode =
  let { Ctx.store; cache_verify; faults; trace; scope } = cu.cu_ctx in
  match store with
  | None -> None
  | Some _ when cache_verify ->
    (* verify mode: always recompute; [store_put] then compares *)
    None
  | Some s -> (
    let key = store_key cu ~kind ~context in
    match Store.read ~faults ~scope s ~kind ~key with
    | Store.Hit payload -> (
      Instrument.incr trace "cu.store-hit";
      match Result.map decode (Record.decode payload) with
      | Ok (Some _ as v) -> v
      | Ok None | Error _ ->
        store_incident cu ~kind "undecodable payload; recomputing";
        None)
    | Store.Miss ->
      Instrument.incr trace "cu.store-miss";
      None
    | Store.Bad msg ->
      Instrument.incr trace "cu.store-miss";
      store_incident cu ~kind (msg ^ "; recomputing");
      None)

let store_put cu ~kind ~context fields =
  let { Ctx.store; cache_verify; faults; trace; scope } = cu.cu_ctx in
  match store with
  | None -> ()
  | Some s -> (
    let payload = Record.encode fields in
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
