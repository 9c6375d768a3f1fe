(* nimbled — the fault-tolerant compilation daemon.  Serves
   sweep/plan/estimate requests from nimblec --server clients over a
   Unix-domain socket, with bounded admission, per-request wall
   budgets, per-connection fault isolation, graceful drain on
   SIGTERM/DRAIN and crash recovery on restart (docs/SERVICE.md).

     nimbled --socket /tmp/nimbled.sock --cache /tmp/store --queue 16 *)

open Cmdliner
module Diag = Uas_pass.Diag
module Fault = Uas_runtime.Fault
module Store = Uas_runtime.Store
module Budget = Uas_runtime.Budget
module Parallel = Uas_runtime.Parallel
module Trajectory = Uas_runtime.Trajectory
module Handler = Uas_service.Handler
module Server = Uas_service.Server
module Protocol = Uas_service.Protocol

let log m = Printf.eprintf "nimbled: %s\n%!" m

(* Startup problems are structured diagnostics, never backtraces. *)
let startup_error fmt =
  Format.kasprintf
    (fun msg ->
      Fmt.epr "nimbled: %a@." Diag.pp (Diag.errorf ~pass:"service" "%s" msg);
      exit 1)
    fmt

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (required)")

let pidfile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pidfile" ] ~docv:"PATH"
        ~doc:
          "Write the daemon pid here; a stale pidfile from a killed \
           daemon is detected (the pid no longer runs) and removed on \
           restart")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~env:(Cmd.Env.info Store.env_var)
        ~doc:
          "Persistent artifact store shared across requests (and, via \
           the store's file lock, across processes); reopened and \
           verified on restart")

let cache_verify_arg =
  Arg.(
    value & flag
    & info [ "cache-verify" ]
        ~doc:"Recompute every artifact and compare against the cached copy")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker-pool size for each request's sweep (default: \
              $(b,UAS_JOBS) or the core count)")

let queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission bound: at most N work requests wait; beyond it \
           requests are shed with $(b,BUSY) + retry-after, never a \
           silent hang")

let task_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout" ] ~docv:"SECS"
        ~doc:
          "Per-cell wall budget inside each request's worker pool (the \
           supervised-pool watchdog)")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget for retryable task failures inside requests")

let request_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-budget" ] ~docv:"SECS"
        ~doc:
          "Default per-request wall budget: an overrunning request is \
           answered $(b,ERR) (timed out) and abandoned; a request's own \
           $(b,budget=) key overrides this")

let drain_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "drain-timeout" ] ~docv:"SECS"
        ~doc:
          "How long a drain waits for in-flight and queued work before \
           abandoning the remainder")

let interp_arg =
  let tier_conv =
    let parse s =
      match Uas_ir.Fast_interp.tier_of_string s with
      | Some t -> Ok t
      | None ->
        Error
          (`Msg
            (Printf.sprintf "expected %s, got %s"
               Uas_ir.Fast_interp.valid_tiers s))
    in
    let print ppf t = Fmt.string ppf (Uas_ir.Fast_interp.tier_name t) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some tier_conv) None
    & info [ "interp" ] ~docv:"TIER"
        ~doc:
          "Default interpreter tier for requests that do not name one: \
           $(b,ref) or $(b,fast)")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"PLAN"
        ~doc:
          "Arm the deterministic fault-injection registry (testing; \
           same grammar as $(b,UAS_FAULT)); the service sites are \
           $(b,service.accept), $(b,service.request), $(b,service.reply)")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "On drain, write a trajectory document (schema v7) whose \
           $(b,daemon) object carries the service counters")

let max_frame_arg =
  Arg.(
    value
    & opt int Uas_service.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:
          "Largest accepted request body; an oversized frame costs its \
           sender a typed $(b,ERR) and the connection")

let serve socket pidfile cache cache_verify jobs queue timeout_s retries
    request_budget drain_timeout interp fault json max_frame =
  (* malformed environment or flags are diagnostics up front *)
  (match Parallel.default_jobs_result () with
  | Ok _ -> ()
  | Error m -> startup_error "%s" m);
  (match Fault.env_error () with
  | None -> ()
  | Some m -> startup_error "%s: %s" Fault.env_var m);
  (match Uas_ir.Fast_interp.env_tier_error () with
  | None -> ()
  | Some m -> startup_error "%s" m);
  (match timeout_s with
  | Some t -> (
    match Budget.check_timeout ~flag:"--task-timeout" t with
    | Ok _ -> ()
    | Error m -> startup_error "%s" m)
  | None -> ());
  (match retries with
  | Some n -> (
    match Budget.check_retries ~flag:"--retries" n with
    | Ok _ -> ()
    | Error m -> startup_error "%s" m)
  | None -> ());
  (match request_budget with
  | Some b -> (
    match Budget.check_timeout ~flag:"--request-budget" b with
    | Ok _ -> ()
    | Error m -> startup_error "%s" m)
  | None -> ());
  (match Budget.check_timeout ~flag:"--drain-timeout" drain_timeout with
  | Ok _ -> ()
  | Error m -> startup_error "%s" m);
  if queue < 1 then
    startup_error "--queue %d is out of range; expected a positive integer"
      queue;
  if max_frame < 1024 then
    startup_error "--max-frame %d is out of range; expected at least 1024"
      max_frame;
  (match interp with
  | Some tier -> Uas_ir.Fast_interp.set_default_tier tier
  | None -> ());
  (match fault with
  | None -> ()
  | Some plan -> (
    match Fault.arm plan with
    | Ok () -> ()
    | Error m -> startup_error "--fault: %s" m));
  (* reopen and verify the store before admitting anyone: a restart
     after SIGKILL must prove the cache survived *)
  (match cache with
  | None -> ()
  | Some dir -> (
    match Store.open_dir dir with
    | Error m -> startup_error "--cache: %s" m
    | Ok s ->
      Store.install s;
      let objects, bytes = Store.scan s in
      log
        (Printf.sprintf "store reopened: %d object(s), %d bytes verified"
           objects bytes)));
  if cache_verify then Store.set_verify true;
  let on_drained ~daemon_json =
    match json with
    | None -> ()
    | Some file ->
      let traj =
        Trajectory.make
          ~interp_tier:
            (Uas_ir.Fast_interp.tier_name (Uas_ir.Fast_interp.default_tier ()))
          ~jobs ()
      in
      Trajectory.set_daemon_json traj daemon_json;
      Trajectory.write_file traj file;
      log (Printf.sprintf "wrote %s" file)
  in
  let cfg =
    { Server.c_socket = socket;
      c_pidfile = pidfile;
      c_queue_depth = queue;
      c_limits =
        { Handler.l_jobs = jobs; l_timeout_s = timeout_s;
          l_retries = retries };
      c_request_budget_s = request_budget;
      c_drain_timeout_s = drain_timeout;
      c_max_frame = max_frame;
      c_handle_signals = true;
      c_log = log;
      c_on_drained = on_drained }
  in
  match Server.run cfg with
  | Ok () ->
    log "drained; exiting 0";
    exit 0
  | Error m -> startup_error "%s" m

let () =
  let info =
    Cmd.info "nimbled" ~version:Uas_runtime.Build_info.version_string
      ~doc:"Fault-tolerant unroll-and-squash compilation daemon"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Serves sweep, plan and estimate requests over a \
             Unix-domain socket with bounded admission (overload sheds \
             with BUSY + retry-after), per-request wall budgets, \
             per-connection fault isolation, graceful drain on SIGTERM \
             or a DRAIN frame, and stale socket/pidfile recovery on \
             restart.  See docs/SERVICE.md for the protocol grammar \
             and the degradation matrix." ]
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const serve $ socket_arg $ pidfile_arg $ cache_arg
            $ cache_verify_arg $ jobs_arg $ queue_arg $ task_timeout_arg
            $ retries_arg $ request_budget_arg $ drain_timeout_arg
            $ interp_arg $ fault_arg $ json_arg $ max_frame_arg)))
