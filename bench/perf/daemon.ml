(* daemon-estimate: nimbled under an open-loop load of
   [ESTIMATE verify=true] requests, then a closed-loop saturation step.

   Set-up is what a client waits for before its first warm request:
   spawning the daemon, the HELLO handshake, and one warming ESTIMATE
   per benchmark on a fresh store.  The open loop sends request k at
   its due time t0 + k/rate, alternating between two connections, each
   driven by its own thread; latency runs from the due time, so a
   stalled daemon is charged for the requests queued behind the stall.
   Every reply must equal the in-process [Handler.execute] render of
   the same request byte for byte. *)

open Common
module Handler = Uas_service.Handler
module Client = Uas_service.Client
module Protocol = Uas_service.Protocol
module Registry = Uas_bench_suite.Registry
module Json = Perf_lib.Json

(* The open loop: [open_requests] requests at [rate] per second.  A warm
   verified ESTIMATE costs about 33 ms on two cores, so this holds the
   single dispatcher near a third of its capacity — still under two
   thirds when the machine runs at half speed, so the backlog never
   grows — and 110 samples give a p90 with ten samples above it.  The
   saturation step takes the rest of the run, at least 3 s. *)
let rate = 10.0
let open_requests = 110

(* The generator must wake within this of a request's due time at p90
   (time spent waiting for a connection still busy with the previous
   reply does not count). *)
let max_lag_ms = 5.0

let estimate_work name =
  Handler.W_estimate
    { Handler.e_bench = name;
      e_verify = true;
      e_tier = None;
      e_validate = false;
      e_exact = Uas_dfg.Sched.Exact_off;
      e_budget_s = None }

let frame_of name = Handler.to_frame (Handler.Work (estimate_work name))

type daemon = { pid : int; sock : string }

let spawned : int list ref = ref []

let reap pid =
  let deadline = now () +. 10.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Thread.delay 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  spawned := List.filter (( <> ) pid) !spawned

(* Kill and reap whatever is still running: the error paths' cleanup. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !spawned

let request conn frame =
  match Client.request conn frame with
  | Ok { Protocol.tag = Protocol.Reply_ok; body } -> Ok body
  | Ok { Protocol.tag; body } ->
    Error (Printf.sprintf "%s reply: %s" (Protocol.tag_name tag) body)
  | Error m -> Error m

let connect d =
  match Client.connect d.sock with Ok c -> c | Error m -> failwith m

let spawn ctx =
  let dir = fresh_dir ctx "daemon" in
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "nimbled.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process ctx.nimbled
      [| ctx.nimbled; "--socket"; sock; "--cache"; Filename.concat dir "store";
         "-j"; string_of_int jobs |]
      Unix.stdin log log
  in
  Unix.close log;
  spawned := pid :: !spawned;
  let d = { pid; sock } in
  let deadline = now () +. 30.0 in
  let rec handshake () =
    match Client.connect sock with
    | Ok conn ->
      let r = request conn (Handler.to_frame (Handler.Hello "perf")) in
      Client.close conn;
      (match r with Ok _ -> () | Error m -> failwith ("HELLO: " ^ m))
    | Error m ->
      if now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith ("nimbled did not come up: " ^ m);
      Thread.delay 0.005;
      handshake ()
  in
  handshake ();
  d

let drain d =
  (match Client.connect d.sock with
  | Ok conn ->
    ignore (request conn (Handler.to_frame Handler.Drain));
    Client.close conn
  | Error _ -> ());
  reap d.pid

let stats d =
  let conn = connect d in
  let r = request conn (Handler.to_frame Handler.Stats) in
  Client.close conn;
  match r with
  | Error m -> failwith ("STATS: " ^ m)
  | Ok body -> (
    match Json.parse body with
    | Ok j -> (
      fun k ->
        match Option.bind (Json.member "daemon" j) (Json.member k) with
        | Some (Json.Num f) -> f
        | _ -> 0.0)
    | Error m -> failwith ("STATS reply: " ^ m))

type sample = { bench : string; due : float; sent : float; free : float; done_ : float }

let benches () = Registry.all () @ Registry.extras ()

(* The local render of every benchmark's request: the byte-for-byte
   reference for the daemon's replies. *)
let local_renders ctx acc =
  fresh_store ctx;
  List.map
    (fun (b : Registry.benchmark) ->
      let name = b.Registry.b_name in
      match
        Handler.execute
          ~limits:{ Handler.no_limits with Handler.l_jobs = Some jobs }
          (estimate_work name)
      with
      | Ok (payload, _) ->
        Inproc.check_render acc ~key:("estimate/" ^ name) payload;
        (name, payload)
      | Error m -> failwith ("local execute " ^ name ^ ": " ^ m))
    (benches ())

let run ctx acc =
  let expected = local_renders ctx acc in
  let names = List.map fst expected in
  let lock = Mutex.create () in
  let check_reply name r =
    Mutex.protect lock (fun () ->
        match r with
        | Ok body ->
          check acc
            (String.equal body (List.assoc name expected))
            "daemon reply for %s differs from the local render" name
        | Error m -> check acc false "daemon request %s failed: %s" name m)
  in
  let setup () =
    Calib.refresh ctx.calib;
    let d, dt =
      time (fun () ->
          let d = spawn ctx in
          let conn = connect d in
          List.iter (fun n -> check_reply n (request conn (frame_of n))) names;
          Client.close conn;
          d)
    in
    add_setup acc dt;
    d
  in
  drain (setup ());
  drain (setup ());
  let d = setup () in
  let conns = [| connect d; connect d |] in
  let st0 = stats d in
  (* STATS once a second for the queue high-water mark *)
  let polling = Atomic.make true in
  let queue_max = ref 0.0 in
  let poller =
    Thread.create
      (fun () ->
        while Atomic.get polling do
          (try queue_max := Float.max !queue_max (stats d "queue_depth")
           with Failure _ -> ());
          let t = now () in
          while Atomic.get polling && now () -. t < 1.0 do Thread.delay 0.02 done
        done)
      ()
  in
  (* open loop *)
  Calib.refresh ~every:0.0 ctx.calib;
  let n = if ctx.smoke then 20 else open_requests in
  (* every run sends the same mix: each block of six requests is a
     seeded permutation of the six benchmarks *)
  let plan =
    Array.init n (fun k ->
        List.nth (shuffle ~seed:(ctx.seed + (k / 6)) names) (k mod 6))
  in
  let t0 = now () +. 0.05 in
  let samples = Array.make n None in
  let sender c () =
    let free = ref t0 in
    let k = ref c in
    while !k < n do
      let due = t0 +. (float_of_int !k /. rate) in
      let wait = due -. now () in
      if wait > 0.0 then Thread.delay wait;
      let sent = now () in
      let r = request conns.(c) (frame_of plan.(!k)) in
      let done_ = now () in
      samples.(!k) <- Some ({ bench = plan.(!k); due; sent; free = !free; done_ }, r);
      free := done_;
      k := !k + 2
    done
  in
  let threads = [ Thread.create (sender 0) (); Thread.create (sender 1) () ] in
  List.iter Thread.join threads;
  let samples = Array.to_list samples |> List.filter_map Fun.id in
  List.iter (fun (s, r) -> check_reply s.bench r) samples;
  Calib.refresh ~every:0.0 ctx.calib;
  List.iter (fun (s, _) -> add_req acc (s.done_ -. s.due)) samples;
  (* how late the generator woke, not counting a busy connection *)
  let lags =
    List.map (fun (s, _) -> 1000.0 *. (s.sent -. Float.max s.due s.free)) samples
  in
  (match Perf_lib.Stats.percentile ~p:90.0 lags with
  | Ok lag ->
    note acc "generator lag p90 %.2f ms over %d requests" lag (List.length lags);
    check acc (lag <= max_lag_ms) "generator lag p90 %.2f ms exceeds %.0f ms" lag max_lag_ms
  | Error _ -> ());
  (match ctx.trace with
  | None -> ()
  | Some tr ->
    List.iter
      (fun (s, _) ->
        Trace.add tr ~parent:Trace.root ~req:("estimate/" ^ s.bench) ~tid:0
          "service.request" s.sent s.done_)
      samples;
    let rtt = List.map (fun (s, _) -> 1000.0 *. (s.done_ -. s.sent)) samples in
    add acc "service.rtt_ms" (Perf_lib.Stats.median rtt));
  (* saturation: rounds of one request per benchmark, both connections
     busy until the round is answered *)
  let sat_s = if ctx.smoke then 2.0 else Float.max 3.0 (ctx.seconds -. (float_of_int n /. rate)) in
  let deadline = now () +. sat_s in
  let round = ref 0 in
  while !round = 0 || now () < deadline do
    Calib.refresh ctx.calib;
    let order = Array.of_list (shuffle ~seed:(ctx.seed + !round) names) in
    let next = Atomic.make 0 in
    let worker c () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length order then begin
          check_reply order.(i) (request conns.(c) (frame_of order.(i)));
          go ()
        end
      in
      go ()
    in
    let (), dt =
      time (fun () ->
          let ts = [ Thread.create (worker 0) (); Thread.create (worker 1) () ] in
          List.iter Thread.join ts)
    in
    add_pass acc dt;
    incr round
  done;
  Atomic.set polling false;
  Thread.join poller;
  let st1 = stats d in
  let delta k = st1 k -. st0 k in
  add acc "service.queue_max" !queue_max;
  add acc "service.shed" (delta "shed");
  add acc "service.timed_out" (delta "timed_out");
  add acc "service.protocol_errors" (delta "protocol_errors");
  check acc (delta "shed" = 0.0 && delta "timed_out" = 0.0 && delta "protocol_errors" = 0.0)
    "daemon shed %g, timed out %g, protocol errors %g" (delta "shed")
    (delta "timed_out") (delta "protocol_errors");
  acc.peak_rss_kb <- vm_hwm_kb (string_of_int d.pid);
  Array.iter Client.close conns;
  drain d;
  (* the in-process cost of the same requests, on a warm local store *)
  match ctx.trace with
  | None -> ()
  | Some _ ->
    let exec =
      List.concat_map
        (fun name ->
          List.init 3 (fun _ ->
              let _, dt =
                time (fun () ->
                    Handler.execute
                      ~limits:{ Handler.no_limits with Handler.l_jobs = Some jobs }
                      (estimate_work name))
              in
              1000.0 *. dt))
        names
    in
    let e = Perf_lib.Stats.median exec in
    add acc "service.execute_ms" e;
    add acc "service.overhead_ms" (get acc "service.rtt_ms" -. e)
