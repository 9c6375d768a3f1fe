open Cmdliner
module Fast_interp = Uas_ir.Fast_interp
module Diag = Uas_pass.Diag
module Budget = Uas_runtime.Budget
module Ctx = Uas_runtime.Ctx
module Fault = Uas_runtime.Fault
module Instrument = Uas_runtime.Instrument
module Store = Uas_runtime.Store

type t = {
  jobs : int option;
  tier : Fast_interp.tier option;
  fault : string option;
  cache : string option;
  cache_verify : bool;
  task_timeout : float option;
  retries : int option;
  validate : bool;
  timings : bool;
}

let default =
  { jobs = None;
    tier = None;
    fault = None;
    cache = None;
    cache_verify = false;
    task_timeout = None;
    retries = None;
    validate = false;
    timings = false }

(* --- converters: every range check happens at parse time --- *)

let int_at_least min ~expect =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= min -> Ok n
    | Some _ | None -> Error (Printf.sprintf "must be %s (got %S)" expect s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let seconds ~flag =
  Arg.conv' ~docv:"SECS" (Budget.timeout_of_string ~flag, Format.pp_print_float)

let tier_conv =
  let parse s =
    match Fast_interp.tier_of_string s with
    | Some t -> Ok t
    | None ->
      Error (Printf.sprintf "expected %s, got %s" Fast_interp.valid_tiers s)
  in
  Arg.conv' ~docv:"TIER"
    (parse, fun ppf t -> Fmt.string ppf (Fast_interp.tier_name t))

(* --- one term per flag --- *)

let jobs_arg =
  Arg.(
    value
    & opt (some (int_at_least 1 ~expect:"a positive integer")) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker-pool size for sweeps and plans (default: $(b,UAS_JOBS) \
           or the core count; 1 = sequential).  The output is \
           byte-identical for every N.")

let interp_arg =
  Arg.(
    value
    & opt (some tier_conv) None
    & info [ "interp" ] ~docv:"TIER"
        ~doc:
          "Interpreter tier: $(b,ref) (the tree-walking reference) or \
           $(b,fast) (slot-compiled; the default, or $(b,UAS_INTERP)).  \
           Both produce bit-identical results and profiles.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"PLAN"
        ~doc:
          "Arm the deterministic fault-injection registry (testing; same \
           grammar as $(b,UAS_FAULT): site[=label]:kind:nth,...)")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~env:(Cmd.Env.info Store.env_var)
        ~doc:
          "Persistent content-addressed artifact store: schedules, \
           hardware estimates and planner rows are looked up here before \
           being recomputed (see docs/CACHING.md)")

let cache_verify_arg =
  Arg.(
    value & flag
    & info [ "cache-verify" ]
        ~doc:
          "Recompute every artifact and compare it against the cached \
           copy; a mismatch is an incident and the entry is replaced")

let task_timeout_arg =
  Arg.(
    value
    & opt (some (seconds ~flag:"--task-timeout")) None
    & info [ "task-timeout" ] ~docv:"SECS"
        ~doc:
          "Per-task wall-clock budget for the worker pool; an overrunning \
           task is marked timed out and its cell skipped instead of \
           hanging the sweep")

let retries_arg =
  let retries =
    Arg.conv' ~docv:"N"
      (Budget.retries_of_string ~flag:"--retries", Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some retries) None
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget for retryable (injected-fault) task failures")

let validate_arg =
  Arg.(
    value
    & opt (enum [ ("off", false); ("probe", true) ]) false
    & info [ "validate" ] ~docv:"MODE"
        ~doc:
          "Translation validation of every rewrite: $(b,off) (the default) \
           or $(b,probe) (replay the benchmark workload on both \
           interpreter tiers after each rewrite; a miscompiling rewrite \
           degrades its cell to the last-known-good program)")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Record per-pass wall-clock spans and counters and print the \
           summary table at the end")

(* --- the session terms --- *)

let tier_only =
  let make tier = { default with tier } in
  Term.(const make $ interp_arg)

let runtime =
  let make jobs tier fault cache cache_verify task_timeout retries =
    { default with
      jobs;
      tier;
      fault;
      cache;
      cache_verify;
      task_timeout;
      retries }
  in
  Term.(
    const make $ jobs_arg $ interp_arg $ fault_arg $ cache_arg
    $ cache_verify_arg $ task_timeout_arg $ retries_arg)

let term =
  let make s validate timings = { s with validate; timings } in
  Term.(const make $ runtime $ validate_arg $ timings_arg)

(* --- start-up --- *)

let failf ~prog ?(pass = "runtime") fmt =
  Format.kasprintf
    (fun msg ->
      Fmt.epr "%s: %a@." prog Diag.pp (Diag.errorf ~pass "%s" msg);
      exit 1)
    fmt

let write_output ~prog ~what path contents =
  match
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
  with
  | () -> ()
  | exception Sys_error m -> failf ~prog "%s: %s" what m

let start ~prog s : Ctx.t =
  (* a malformed environment is a diagnostic up front, not an
     Invalid_argument out of the first pool dispatch or a silent tier
     fallback *)
  (match Uas_runtime.Parallel.default_jobs_result () with
  | Ok _ -> ()
  | Error m -> failf ~prog "%s" m);
  let parse_faults source = function
    | None -> Fault.none
    | Some plan -> (
      match Fault.parse plan with
      | Ok f -> f
      | Error m -> failf ~prog "%s: %s" source m)
  in
  let env_faults = parse_faults Fault.env_var (Sys.getenv_opt Fault.env_var) in
  (match Fast_interp.env_tier_error () with
  | None -> ()
  | Some m -> failf ~prog "%s" m);
  let faults =
    if Option.is_some s.fault then parse_faults "--fault" s.fault
    else env_faults
  in
  Option.iter Fast_interp.set_default_tier s.tier;
  { Ctx.store = None;
    cache_verify = s.cache_verify;
    faults;
    trace = (if s.timings then Instrument.create () else Instrument.off);
    scope = [] }

let open_store ~prog s (ctx : Ctx.t) =
  match s.cache with
  | None -> ctx
  | Some dir -> (
    match Store.open_dir dir with
    | Ok store -> { ctx with store = Some store }
    | Error m -> failf ~prog "--cache: %s" m)

let report_store (ctx : Ctx.t) =
  match ctx.store with
  | Some s -> Fmt.epr "%a@." Store.pp_stats s
  | None -> ()
