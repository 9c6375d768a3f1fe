(* Request bodies and request execution, shared by three parties so
   daemon-served output is byte-identical to local output by
   construction:

   - the daemon (Server) parses bodies with [parse] and runs them with
     [execute];
   - the client (nimblec --server) renders bodies with [to_frame];
   - the fallback and the differential tests render the same requests
     locally through the same [execute]/[render_*] functions.

   A work body is line-oriented and order-insensitive after the first
   line:

     <benchmark>\n
     key=value\n ...        tier|verify|validate|objective|budget

   Unknown keys and malformed values are parse errors (a one-line
   message the daemon sends back as ERR), never exceptions. *)

module E = Uas_core.Experiments
module P = Uas_core.Planner
module Registry = Uas_bench_suite.Registry
module Diag = Uas_pass.Diag
module Fast_interp = Uas_ir.Fast_interp
module Budget = Uas_runtime.Budget

type estimate_opts = {
  e_bench : string;
  e_verify : bool;
  e_tier : Fast_interp.tier option;
  e_validate : bool;
  e_exact : Uas_dfg.Sched.exact_mode;  (* ignored; for bench/perf only *)
  e_budget_s : float option;
}

type plan_opts = {
  p_bench : string;
  p_objective : P.objective;
  p_validate : bool;
  p_budget_s : float option;
}

type work = W_estimate of estimate_opts | W_plan of plan_opts

type request = Hello of string | Work of work | Stats | Health | Drain

let work_name = function
  | W_estimate _ -> "estimate"
  | W_plan _ -> "plan"

let bench_name = function
  | W_estimate o -> o.e_bench
  | W_plan o -> o.p_bench

let budget_s = function
  | W_estimate o -> o.e_budget_s
  | W_plan o -> o.p_budget_s

(* ---- body rendering (client side) ---- *)

let opt_line key = function None -> [] | Some v -> [ key ^ "=" ^ v ]

let work_body w =
  let bench = bench_name w in
  let kvs =
    match w with
    | W_estimate o ->
      [ Printf.sprintf "verify=%b" o.e_verify;
        Printf.sprintf "validate=%b" o.e_validate ]
      @ opt_line "tier" (Option.map Fast_interp.tier_name o.e_tier)
      @ opt_line "budget" (Option.map string_of_float o.e_budget_s)
    | W_plan o ->
      [ Printf.sprintf "objective=%s" (P.objective_name o.p_objective);
        Printf.sprintf "validate=%b" o.p_validate ]
      @ opt_line "budget" (Option.map string_of_float o.p_budget_s)
  in
  String.concat "\n" (bench :: kvs)

let to_frame : request -> Protocol.frame = function
  | Hello client -> { Protocol.tag = Protocol.Hello; body = client }
  | Stats -> { Protocol.tag = Protocol.Stats; body = "" }
  | Health -> { Protocol.tag = Protocol.Health; body = "" }
  | Drain -> { Protocol.tag = Protocol.Drain; body = "" }
  | Work w ->
    let tag =
      match w with
      | W_estimate _ -> Protocol.Estimate
      | W_plan _ -> Protocol.Plan
    in
    { Protocol.tag; body = work_body w }

(* ---- body parsing (daemon side) ---- *)

let ( let* ) = Result.bind

let parse_kvs lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | line :: rest -> (
      match String.index_opt line '=' with
      | None -> Error (Printf.sprintf "malformed request line %S" line)
      | Some i ->
        let k = String.sub line 0 i in
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        go ((k, v) :: acc) rest)
  in
  go [] lines

let parse_bool ~key v =
  match bool_of_string_opt v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "%s expects true or false, got %S" key v)

let parse_tier v =
  match Fast_interp.tier_of_string v with
  | Some t -> Ok (Some t)
  | None -> Error (Printf.sprintf "tier expects %s, got %S" Fast_interp.valid_tiers v)

let parse_objective v =
  match P.objective_of_string v with
  | Some o -> Ok o
  | None -> Error (Printf.sprintf "objective expects ii, area or ratio, got %S" v)

let parse_budget v =
  let* b = Budget.timeout_of_string ~flag:"budget" v in
  Ok (Some b)

let split_body body =
  match String.split_on_char '\n' body with
  | [] | [ "" ] -> Error "empty request body (expected a benchmark name)"
  | bench :: rest ->
    if String.equal bench "" then
      Error "empty benchmark name in request body"
    else
      let* kvs = parse_kvs rest in
      Ok (bench, kvs)

let fold_kvs ~on_kv init kvs =
  List.fold_left
    (fun acc (k, v) ->
      let* acc = acc in
      on_kv acc k v)
    (Ok init) kvs

let estimate_opts bench =
  { e_bench = bench;
    e_verify = false;
    e_tier = None;
    e_validate = false;
    e_exact = Uas_dfg.Sched.Exact_off;
    e_budget_s = None }

let parse_estimate body =
  let* bench, kvs = split_body body in
  fold_kvs (estimate_opts bench) kvs ~on_kv:(fun o k v ->
      match k with
      | "verify" ->
        let* b = parse_bool ~key:k v in
        Ok { o with e_verify = b }
      | "validate" ->
        let* b = parse_bool ~key:k v in
        Ok { o with e_validate = b }
      | "tier" ->
        let* t = parse_tier v in
        Ok { o with e_tier = t }
      | "budget" ->
        let* b = parse_budget v in
        Ok { o with e_budget_s = b }
      | _ -> Error (Printf.sprintf "unknown ESTIMATE key %S" k))

let parse_plan body =
  let* bench, kvs = split_body body in
  let init =
    { p_bench = bench;
      p_objective = P.Ratio;
      p_validate = false;
      p_budget_s = None }
  in
  fold_kvs init kvs ~on_kv:(fun o k v ->
      match k with
      | "objective" ->
        let* ob = parse_objective v in
        Ok { o with p_objective = ob }
      | "validate" ->
        let* b = parse_bool ~key:k v in
        Ok { o with p_validate = b }
      | "budget" ->
        let* b = parse_budget v in
        Ok { o with p_budget_s = b }
      | _ -> Error (Printf.sprintf "unknown PLAN key %S" k))

let parse (f : Protocol.frame) : (request, string) result =
  match f.Protocol.tag with
  | Protocol.Hello -> Ok (Hello f.Protocol.body)
  | Protocol.Stats -> Ok Stats
  | Protocol.Health -> Ok Health
  | Protocol.Drain -> Ok Drain
  | Protocol.Estimate ->
    let* o = parse_estimate f.Protocol.body in
    Ok (Work (W_estimate o))
  | Protocol.Plan ->
    let* o = parse_plan f.Protocol.body in
    Ok (Work (W_plan o))
  | Protocol.Reply_ok | Protocol.Reply_err | Protocol.Reply_busy ->
    Error
      (Printf.sprintf "unexpected reply tag %s in a request"
         (Protocol.tag_name f.Protocol.tag))

(* ---- rendering ---- *)

(* nimblec prints its local results through these too, so a served
   reply and a local run are one rendering. *)
let render_estimate (row : E.bench_row) =
  Fmt.str "%a@.%a@." E.pp_table_6_2 [ row ] E.pp_table_6_3 [ row ]

let render_plan (plan : P.plan) = Fmt.str "%a@." P.pp plan

(* ---- incident accounting (the "degraded" daemon counter) ---- *)

let estimate_incidents (row : E.bench_row) =
  List.length row.E.br_skipped
  + List.fold_left
      (fun acc (c : E.cell) -> acc + List.length c.E.c_incidents)
      0 row.E.br_cells

(* Rows whose outcome is [Error] are ranked planner output (structural
   rejections are routine — a factor that does not divide the trip
   count); only recorded incidents mark a degraded request. *)
let plan_incidents (plan : P.plan) =
  List.fold_left
    (fun acc (r : P.row) -> acc + List.length r.P.r_incidents)
    0 plan.P.p_rows

(* ---- execution ---- *)

type limits = {
  l_jobs : int option;  (** pool width for the request's cells *)
  l_timeout_s : float option;  (** per-cell wall budget (PR 5 watchdog) *)
  l_retries : int option;
}

let no_limits = { l_jobs = None; l_timeout_s = None; l_retries = None }

let find_benchmark name =
  match Registry.find name with
  | Some b -> Ok b
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %s; known: %s" name
         (String.concat ", "
            (List.map
               (fun (b : Registry.benchmark) -> b.Registry.b_name)
               (Registry.all () @ Registry.extras ()))))

(* [execute] returns the rendered payload with the request's incident
   count, or a one-line error.  Nothing escapes as an exception: a
   structured diagnostic, an injected fault or any other exception all
   land in [Error] — the daemon turns that into one ERR reply and
   lives on. *)
let execute ?ctx ?(limits = no_limits) (w : work) :
    (string * int, string) result =
  let { l_jobs; l_timeout_s; l_retries } = limits in
  match
    let* b = find_benchmark (bench_name w) in
    match w with
    | W_estimate o ->
      let row =
        E.run_benchmark ?ctx ~verify:o.e_verify ?tier:o.e_tier
          ~validate:o.e_validate ?jobs:l_jobs
          ?timeout_s:l_timeout_s ?retries:l_retries b
      in
      Ok (render_estimate row, estimate_incidents row)
    | W_plan o ->
      let probe = if o.p_validate then Some b.Registry.b_workload else None in
      let plan =
        P.plan ?ctx ?jobs:l_jobs ~objective:o.p_objective ?validate:probe
          ?timeout_s:l_timeout_s ?retries:l_retries
          b.Registry.b_program ~outer_index:b.Registry.b_outer_index
          ~inner_index:b.Registry.b_inner_index ~benchmark:b.Registry.b_name
      in
      Ok (render_plan plan, plan_incidents plan)
  with
  | result -> result
  | exception Diag.Failed d -> Error (Diag.to_string d)
  | exception e ->
    (* an injected fault renders through its registered printer *)
    Error (Printexc.to_string e)
