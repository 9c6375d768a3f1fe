(* nimbled — the fault-tolerant compilation daemon.  Serves
   estimate and plan requests from nimblec --server clients over a
   Unix-domain socket, with bounded admission, per-request wall
   budgets, per-connection fault isolation, graceful drain on
   SIGTERM/DRAIN and crash recovery on restart (docs/SERVICE.md).

     nimbled --socket /tmp/nimbled.sock --cache /tmp/store --queue 16 *)

open Cmdliner
module Store = Uas_runtime.Store
module Handler = Uas_service.Handler
module Server = Uas_service.Server
module Session = Uas_cli.Session

let prog = "nimbled"
let log m = Printf.eprintf "nimbled: %s\n%!" m

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

let queue_arg =
  Arg.(
    value
    & opt (Session.int_at_least 1 ~expect:"a positive integer") 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission bound: at most N work requests wait; beyond it \
           requests are shed with $(b,BUSY) + retry-after, never a \
           silent hang")

let request_budget_arg =
  Arg.(
    value
    & opt (some (Session.seconds ~flag:"--request-budget")) None
    & info [ "request-budget" ] ~docv:"SECS"
        ~doc:
          "Default per-request wall budget: an overrunning request is \
           answered $(b,ERR) (timed out) and abandoned; a request's own \
           $(b,budget=) key overrides this")

let drain_timeout_arg =
  Arg.(
    value
    & opt (Session.seconds ~flag:"--drain-timeout") 30.0
    & info [ "drain-timeout" ] ~docv:"SECS"
        ~doc:
          "How long a drain waits for in-flight and queued work before \
           abandoning the remainder")

let max_frame_arg =
  Arg.(
    value
    & opt
        (Session.int_at_least 1024 ~expect:"at least 1024")
        Uas_service.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:
          "Largest accepted request body; an oversized frame costs its \
           sender a typed $(b,ERR) and the connection")

let serve (s : Session.t) socket pidfile queue request_budget drain_timeout
    max_frame =
  let ctx = Session.open_store ~prog s (Session.start ~prog s) in
  (* reopen and verify the store before admitting anyone: a restart
     after SIGKILL must prove the cache survived *)
  (match ctx.store with
  | None -> ()
  | Some store ->
    let objects, bytes = Store.scan store in
    log
      (Printf.sprintf "store reopened: %d object(s), %d bytes verified"
         objects bytes));
  let cfg =
    { Server.c_socket = socket;
      c_pidfile = pidfile;
      c_queue_depth = queue;
      c_limits =
        { Handler.l_jobs = s.Session.jobs;
          l_timeout_s = s.Session.task_timeout };
      c_request_budget_s = request_budget;
      c_drain_timeout_s = drain_timeout;
      c_max_frame = max_frame;
      c_handle_signals = true;
      c_log = log }
  in
  match Server.run ~ctx cfg with
  | Ok () ->
    log "drained; exiting 0";
    exit 0
  | Error m -> Session.failf ~prog ~pass:"service" "%s" m

let () =
  let info =
    Cmd.info prog ~version:Uas_runtime.Build_info.version_string
      ~doc:"Fault-tolerant unroll-and-squash compilation daemon"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Serves estimate and plan requests over a \
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
            const serve $ Session.runtime $ socket_arg $ pidfile_arg
            $ queue_arg $ request_budget_arg $ drain_timeout_arg
            $ max_frame_arg)))
