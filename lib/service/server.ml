(* The nimbled engine: accept loop, per-connection reader threads, a
   bounded admission queue, one dispatcher executing work requests
   under per-request wall budgets, graceful drain, crash recovery.

   Threading model.  The accept loop runs in the caller of [run]; each
   connection gets one reader thread (cheap verbs — HELLO, STATS,
   HEALTH — answered inline, work verbs pushed through admission); one
   dispatcher thread pops the queue and executes requests through
   [Handler.execute], whose nested [Parallel] pools fan cells out over
   domains.  Requests with a wall budget run in a worker thread
   watched by the dispatcher: on overrun the dispatcher seals the
   result slot (CAS), replies ERR, and abandons the worker — the
   worker's own cells are budget-capped by the PR 5 pool watchdog, so
   it winds down on its own and can never wedge the daemon.

   Containment invariants (the degradation matrix, docs/SERVICE.md):

   - a malformed, oversized or garbage frame costs the sender an ERR
     (when the connection can still carry one) and that connection —
     counted in [protocol_errors], never a backtrace;
   - a disconnect mid-request is counted and the result discarded;
   - injected faults at service.accept / service.request /
     service.reply cost one connection or one request;
   - overload is explicit: a full queue sheds with BUSY + retry-after,
     never a silent hang;
   - SIGTERM/DRAIN stops admitting, finishes (or times out) in-flight
     work, removes socket and pidfile, and [run] returns [Ok ()] — the
     daemon exits 0. *)

module Ctx = Uas_runtime.Ctx
module Fault = Uas_runtime.Fault
module Store = Uas_runtime.Store

type config = {
  c_socket : string;
  c_pidfile : string option;
  c_queue_depth : int;
  c_limits : Handler.limits;  (** jobs / per-cell timeout / retries *)
  c_request_budget_s : float option;
      (** default per-request wall budget; a request's [budget=] key
          overrides it downward or upward *)
  c_drain_timeout_s : float;
  c_max_frame : int;
  c_handle_signals : bool;  (** install SIGTERM/SIGINT drain handlers *)
  c_log : string -> unit;
  c_on_drained : daemon_json:string -> unit;
      (** called once after drain with the final v7 ["daemon"] object
          (nimbled threads it into the trajectory --json file) *)
}

let default_config ~socket =
  { c_socket = socket;
    c_pidfile = None;
    c_queue_depth = 16;
    c_limits = Handler.no_limits;
    c_request_budget_s = None;
    c_drain_timeout_s = 30.0;
    c_max_frame = Protocol.default_max_frame;
    c_handle_signals = false;
    c_log = ignore;
    c_on_drained = (fun ~daemon_json:_ -> ()) }

type peer = {
  p_fd : Unix.file_descr;
  p_ic : in_channel;
  p_oc : out_channel;
  p_wmutex : Mutex.t;
  p_alive : bool Atomic.t;
}

type job = { j_work : Handler.work; j_peer : peer; j_enqueued_at : float }

type t = {
  cfg : config;
  ctx : Ctx.t;  (** the daemon's run context, shared by every request *)
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  queue : job Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  draining : bool Atomic.t;
  drain_done : bool Atomic.t;
  inflight : int Atomic.t;
  started_at : float;
}

(* A [service.*] fault site of the daemon's plan. *)
let hit st ?label site = Fault.hit st.ctx.faults ~scope:st.ctx.scope ?label site

(* ---- connection plumbing ---- *)

let make_peer fd =
  { p_fd = fd;
    p_ic = Unix.in_channel_of_descr fd;
    p_oc = Unix.out_channel_of_descr fd;
    p_wmutex = Mutex.create ();
    p_alive = Atomic.make true }

let close_peer peer =
  (* first closer wins; the fd is shared by both channels *)
  if Atomic.compare_and_set peer.p_alive true false then begin
    (try flush peer.p_oc with Sys_error _ -> ());
    try Unix.close peer.p_fd with Unix.Unix_error _ -> ()
  end

(* Send one reply frame through the service.reply fault site (label =
   reply tag).  raise drops the connection (the client sees EOF and
   degrades); stall holds the reply for the stall cap, then drops;
   corrupt flips one wire byte so the client's checksum catches it.
   An I/O failure here is a mid-request disconnect: counted, contained. *)
let send st peer (frame : Protocol.frame) =
  Mutex.lock peer.p_wmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock peer.p_wmutex)
    (fun () ->
      if not (Atomic.get peer.p_alive) then
        (* the peer vanished before its reply: mid-request disconnect *)
        Atomic.incr st.metrics.Metrics.disconnects
      else
        let write bytes =
          match
            output_string peer.p_oc bytes;
            flush peer.p_oc
          with
          | () -> ()
          | exception (Sys_error _ | Unix.Unix_error _) ->
            Atomic.incr st.metrics.Metrics.disconnects;
            close_peer peer
        in
        let label = Protocol.tag_name frame.Protocol.tag in
        match hit st ~label "service.reply" with
        | Some ((Fault.Raise | Fault.Stall) as k) ->
          ignore (Fault.absorb ~site:"service.reply" k);
          close_peer peer
        | Some Fault.Corrupt ->
          (* flip the last wire byte: the header checksum no longer
             matches the body, and the client degrades instead of
             consuming a silently-wrong reply *)
          let bytes = Bytes.of_string (Protocol.encode frame) in
          let n = Bytes.length bytes in
          if n > 0 then
            Bytes.set bytes (n - 1)
              (Char.chr (Char.code (Bytes.get bytes (n - 1)) lxor 1));
          write (Bytes.to_string bytes)
        | None -> write (Protocol.encode frame))

let ok body = { Protocol.tag = Protocol.Reply_ok; body }
let err body = { Protocol.tag = Protocol.Reply_err; body }
let busy body = { Protocol.tag = Protocol.Reply_busy; body }

(* ---- payloads for the cheap verbs ---- *)

let queue_depth st =
  Mutex.lock st.qmutex;
  let n = Queue.length st.queue in
  Mutex.unlock st.qmutex;
  n

let stats_payload st =
  let store =
    match st.ctx.store with
    | None -> "null"
    | Some s -> Store.stats_json s
  in
  Printf.sprintf "{\"daemon\":%s,\"store\":%s}"
    (Metrics.to_json st.metrics ~queue_depth:(queue_depth st)
       ~inflight:(Atomic.get st.inflight))
    store

let health_payload st =
  Printf.sprintf "ok uptime=%.1f queue=%d inflight=%d draining=%b"
    (Unix.gettimeofday () -. st.started_at)
    (queue_depth st)
    (Atomic.get st.inflight)
    (Atomic.get st.draining)

let hello_payload () =
  Printf.sprintf "uas/%d nimbled %s ready" Protocol.proto_version
    Uas_runtime.Build_info.version_string

(* ---- drain ---- *)

let begin_drain st =
  if Atomic.compare_and_set st.draining false true then begin
    st.cfg.c_log "draining: admission closed, finishing in-flight work";
    (* wake the dispatcher so an idle daemon drains immediately *)
    Mutex.lock st.qmutex;
    Condition.broadcast st.qcond;
    Mutex.unlock st.qmutex
  end

let await_drained st ~deadline =
  let rec go () =
    if Atomic.get st.drain_done then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* ---- admission ---- *)

let admit st peer w =
  if Atomic.get st.draining then begin
    Atomic.incr st.metrics.Metrics.shed;
    send st peer (busy "retry-after=1.00 reason=draining")
  end
  else begin
    Mutex.lock st.qmutex;
    let depth = Queue.length st.queue in
    if depth >= st.cfg.c_queue_depth then begin
      Mutex.unlock st.qmutex;
      Atomic.incr st.metrics.Metrics.shed;
      (* retry-after scales with the backlog: a deeper queue asks the
         client to stay away longer *)
      send st peer
        (busy
           (Printf.sprintf "retry-after=%.2f reason=queue-full depth=%d"
              (0.25 *. float_of_int (depth + 1))
              depth))
    end
    else begin
      Queue.push
        { j_work = w; j_peer = peer; j_enqueued_at = Unix.gettimeofday () }
        st.queue;
      Atomic.incr st.metrics.Metrics.admitted;
      Condition.signal st.qcond;
      Mutex.unlock st.qmutex
    end
  end

(* ---- request execution ---- *)

(* The service.request fault site (label = request verb), then the
   handler.  [corrupt] has nothing to corrupt before execution and is
   documented as raise-equivalent here. *)
let exec_with_faults st w ~budget =
  match hit st ~label:(Handler.work_name w) "service.request" with
  | Some kind -> Error (Fault.absorb ~site:"service.request" kind)
  | None ->
    let limits =
      (* the request budget caps each nested cell too, so the PR 5
         pool watchdog enforces most of the budget from inside *)
      let base = st.cfg.c_limits in
      let cell_timeout =
        match (base.Handler.l_timeout_s, budget) with
        | Some t, Some b -> Some (Float.min t b)
        | t, None -> t
        | None, b -> b
      in
      { base with Handler.l_timeout_s = cell_timeout }
    in
    Handler.execute ~ctx:st.ctx ~limits w

type exec_failure = Timed_out of string | Failed of string

(* Run one request under its wall budget.  Without a budget the
   request executes inline in the dispatcher.  With one, it runs in a
   worker thread whose result lands in a CAS slot: if the budget
   expires first, the dispatcher seals the slot, reports the timeout,
   and abandons the worker (whose budget-capped cells wind it down). *)
let supervised_execute st w : (string * int, exec_failure) result =
  let budget =
    match Handler.budget_s w with None -> st.cfg.c_request_budget_s | b -> b
  in
  match budget with
  | None -> (
    match exec_with_faults st w ~budget:None with
    | Ok r -> Ok r
    | Error m -> Error (Failed m))
  | Some b ->
    let slot = Atomic.make `Pending in
    let (_ : Thread.t) =
      Thread.create
        (fun () ->
          let r =
            match exec_with_faults st w ~budget:(Some b) with
            | Ok r -> `Ok r
            | Error m -> `Err m
          in
          ignore (Atomic.compare_and_set slot `Pending (`Done r)))
        ()
    in
    let deadline = Unix.gettimeofday () +. b in
    let rec wait () =
      match Atomic.get slot with
      | `Done (`Ok r) -> Ok r
      | `Done (`Err m) -> Error (Failed m)
      | `Abandoned ->
        (* unreachable: only the dispatcher seals the slot *)
        Error (Timed_out "request abandoned")
      | `Pending ->
        if Unix.gettimeofday () >= deadline then
          if Atomic.compare_and_set slot `Pending `Abandoned then begin
            Atomic.incr st.metrics.Metrics.timed_out;
            Error
              (Timed_out
                 (Printf.sprintf
                    "request %s/%s timed out (budget %.2fs)"
                    (Handler.work_name w) (Handler.bench_name w) b))
          end
          else wait () (* the worker won the race at the wire *)
        else begin
          Thread.delay 0.005;
          wait ()
        end
    in
    wait ()

let run_job st job =
  if not (Atomic.get job.j_peer.p_alive) then
    (* the client left while its request sat in the queue: drop the
       work, count the disconnect *)
    Atomic.incr st.metrics.Metrics.disconnects
  else begin
    Atomic.incr st.inflight;
    Fun.protect
      ~finally:(fun () -> Atomic.decr st.inflight)
      (fun () ->
        let result = supervised_execute st job.j_work in
        Atomic.incr st.metrics.Metrics.requests;
        Metrics.add_latency st.metrics
          ~wall_s:(Unix.gettimeofday () -. job.j_enqueued_at);
        if Atomic.get st.draining then
          Atomic.incr st.metrics.Metrics.drained;
        match result with
        | Ok (payload, incidents) ->
          if incidents > 0 then Atomic.incr st.metrics.Metrics.degraded;
          send st job.j_peer (ok payload)
        | Error (Timed_out m) ->
          (* timed_out already counted at the seal *)
          send st job.j_peer (err m)
        | Error (Failed m) ->
          (* the request degraded, the daemon did not *)
          Atomic.incr st.metrics.Metrics.degraded;
          send st job.j_peer (err m))
  end

let dispatcher st =
  let rec loop () =
    Mutex.lock st.qmutex;
    let rec await () =
      if not (Queue.is_empty st.queue) then Some (Queue.pop st.queue)
      else if Atomic.get st.draining then None
      else begin
        Condition.wait st.qcond st.qmutex;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock st.qmutex;
    match job with
    | Some job ->
      run_job st job;
      loop ()
    | None ->
      (* draining and the queue is dry: everything admitted has been
         answered *)
      Atomic.set st.drain_done true
  in
  loop ()

(* ---- per-connection reader ---- *)

let rec reader st peer =
  match Protocol.read_frame ~max_len:st.cfg.c_max_frame peer.p_ic with
  | Error Protocol.Closed ->
    (* orderly close at a frame boundary *)
    close_peer peer
  | Error e ->
    (* protocol trouble: answer with a typed one-liner when the pipe
       still works, then drop the connection — framing is not
       recoverable after garbage.  Counted, contained, no backtrace. *)
    Atomic.incr st.metrics.Metrics.protocol_errors;
    send st peer (err ("protocol: " ^ Protocol.error_message e));
    close_peer peer
  | Ok frame -> (
    match Handler.parse frame with
    | Error m ->
      (* the frame was well-formed, its body was not: ERR and keep the
         connection *)
      Atomic.incr st.metrics.Metrics.protocol_errors;
      send st peer (err m);
      reader st peer
    | Ok (Handler.Hello _client) ->
      send st peer (ok (hello_payload ()));
      reader st peer
    | Ok Handler.Stats ->
      send st peer (ok (stats_payload st));
      reader st peer
    | Ok Handler.Health ->
      send st peer (ok (health_payload st));
      reader st peer
    | Ok Handler.Drain ->
      begin_drain st;
      let drained =
        await_drained st
          ~deadline:(Unix.gettimeofday () +. st.cfg.c_drain_timeout_s)
      in
      send st peer
        (ok (if drained then "drained" else "drain timed out"));
      close_peer peer
    | Ok (Handler.Work w) ->
      admit st peer w;
      reader st peer)

(* ---- crash recovery ---- *)

(* kill 0 answers for zombies too (a SIGKILLed daemon the parent never
   reaped), so a positive answer is double-checked against the process
   state in /proc: state Z is dead for our purposes. *)
let proc_is_zombie pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> input_line ic)
  with
  | line -> (
    (* "pid (comm) STATE ..." — comm may contain anything, so the
       state flag is the first field after the last ')' *)
    match String.rindex_opt line ')' with
    | Some i when i + 2 < String.length line -> line.[i + 2] = 'Z'
    | _ -> false)
  | exception (Sys_error _ | End_of_file) -> false

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> not (proc_is_zombie pid)
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: someone owns it *)

let read_pidfile path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> input_line ic)
  with
  | line -> int_of_string_opt (String.trim line)
  | exception (Sys_error _ | End_of_file) -> None

(* A previous daemon may have been SIGKILLed: its socket and pidfile
   survive.  A live daemon is an error; stale leftovers are removed
   with a log line. *)
let recover cfg : (unit, string) result =
  let stale_pidfile =
    match cfg.c_pidfile with
    | Some pf when Sys.file_exists pf -> (
      match read_pidfile pf with
      | Some pid when pid <> Unix.getpid () && pid_alive pid ->
        Error
          (Printf.sprintf "nimbled already running (pid %d, pidfile %s)" pid
             pf)
      | _ ->
        cfg.c_log (Printf.sprintf "recovering: removing stale pidfile %s" pf);
        (try Sys.remove pf with Sys_error _ -> ());
        Ok ())
    | _ -> Ok ()
  in
  match stale_pidfile with
  | Error _ as e -> e
  | Ok () ->
    if Sys.file_exists cfg.c_socket then begin
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect fd (Unix.ADDR_UNIX cfg.c_socket) with
        | () ->
          Error
            (Printf.sprintf "a daemon is already listening on %s"
               cfg.c_socket)
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ->
          cfg.c_log
            (Printf.sprintf "recovering: removing stale socket %s"
               cfg.c_socket);
          (try Sys.remove cfg.c_socket with Sys_error _ -> ());
          Ok ()
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot probe existing socket %s: %s"
               cfg.c_socket (Unix.error_message e))
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      verdict
    end
    else Ok ()

(* ---- accept loop ---- *)

let accept_loop st =
  let rec loop () =
    if Atomic.get st.draining then ()
    else
      match Unix.select [ st.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _, _, _ -> (
        match Unix.accept st.listen_fd with
        | fd, _ ->
          (match hit st "service.accept" with
          | Some kind ->
            (* any injected kind refuses this one connection: raise
               and corrupt drop it now, stall holds it for the stall
               cap first — either way the daemon keeps accepting *)
            ignore (Fault.absorb ~site:"service.accept" kind);
            Atomic.incr st.metrics.Metrics.disconnects;
            (try Unix.close fd with Unix.Unix_error _ -> ())
          | None ->
            let peer = make_peer fd in
            ignore (Thread.create (fun () -> reader st peer) ()));
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error _ -> if Atomic.get st.draining then ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ---- the daemon ---- *)

let run ?(ctx = Ctx.default ()) (cfg : config) : (unit, string) result =
  (* a peer that vanishes mid-write must cost one EPIPE, not the
     process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match recover cfg with
  | Error _ as e -> e
  | Ok () -> (
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.c_socket);
      Unix.listen listen_fd 64
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" cfg.c_socket
           (Unix.error_message e))
    | () ->
      (match cfg.c_pidfile with
      | None -> ()
      | Some pf ->
        let oc = open_out pf in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (string_of_int (Unix.getpid ()) ^ "\n")));
      let st =
        { cfg;
          ctx;
          metrics = Metrics.create ();
          listen_fd;
          queue = Queue.create ();
          qmutex = Mutex.create ();
          qcond = Condition.create ();
          draining = Atomic.make false;
          drain_done = Atomic.make false;
          inflight = Atomic.make 0;
          started_at = Unix.gettimeofday () }
      in
      if cfg.c_handle_signals then begin
        let h = Sys.Signal_handle (fun _ -> begin_drain st) in
        Sys.set_signal Sys.sigterm h;
        Sys.set_signal Sys.sigint h
      end;
      let (_ : Thread.t) = Thread.create dispatcher st in
      cfg.c_log
        (Printf.sprintf "listening on %s (pid %d, queue %d)" cfg.c_socket
           (Unix.getpid ()) cfg.c_queue_depth);
      accept_loop st;
      (* admission is closed; stop listening so late connectors get
         ECONNREFUSED (a typed client failure), then wait the in-flight
         work out *)
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
      let finished =
        await_drained st
          ~deadline:(Unix.gettimeofday () +. cfg.c_drain_timeout_s)
      in
      if not finished then begin
        (* drain timed out: answer whatever is still queued with a
           typed ERR and abandon the in-flight worker (its cells are
           budget-capped); degraded, not dead *)
        Mutex.lock st.qmutex;
        let leftovers = Queue.fold (fun acc j -> j :: acc) [] st.queue in
        Queue.clear st.queue;
        Mutex.unlock st.qmutex;
        List.iter
          (fun j ->
            Atomic.incr st.metrics.Metrics.shed;
            send st j.j_peer (err "daemon draining; request abandoned"))
          leftovers;
        cfg.c_log
          (Printf.sprintf "drain timed out after %.1fs; %d queued abandoned"
             cfg.c_drain_timeout_s (List.length leftovers))
      end;
      (* store writes are synchronous (write-then-rename); nothing is
         buffered, so "flush" is a final stats line *)
      (match ctx.store with
      | Some s -> cfg.c_log (Format.asprintf "%a" Store.pp_stats s)
      | None -> ());
      cfg.c_log
        (Format.asprintf "%a" Metrics.pp
           (st.metrics, queue_depth st, Atomic.get st.inflight));
      (try Sys.remove cfg.c_socket with Sys_error _ -> ());
      (match cfg.c_pidfile with
      | None -> ()
      | Some pf -> ( try Sys.remove pf with Sys_error _ -> ()));
      cfg.c_on_drained
        ~daemon_json:
          (Metrics.to_json st.metrics ~queue_depth:(queue_depth st)
             ~inflight:(Atomic.get st.inflight));
      Ok ())
