(* The nimbled service: frame round-trips and typed protocol errors,
   client backoff determinism, and a live in-process daemon exercised
   for request identity (daemon-served bytes = in-process bytes),
   concurrent clients at jobs 1 and 4, admission shedding under load,
   drain with in-flight work, protocol-error and disconnect
   containment, and per-request budgets. *)

module Protocol = Uas_service.Protocol
module Handler = Uas_service.Handler
module Client = Uas_service.Client
module Server = Uas_service.Server
module Fault = Uas_runtime.Fault
module Fi = Uas_ir.Fast_interp
module E = Uas_core.Experiments
module P = Uas_core.Planner
module R = Uas_bench_suite.Registry

(* --- fixtures --- *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "uas-svc-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Start a server on a fresh socket, run [f socket], then drain and
   assert the daemon exited cleanly ([run] returned [Ok ()]). *)
let with_server ?ctx ?(configure = fun c -> c) f =
  let socket = fresh_socket () in
  let cfg = configure (Server.default_config ~socket) in
  let result = ref None in
  let th = Thread.create (fun () -> result := Some (Server.run ?ctx cfg)) () in
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n > 500 then Alcotest.fail "server did not come up"
    else begin
      Thread.delay 0.01;
      wait (n + 1)
    end
  in
  wait 0;
  Fun.protect
    ~finally:(fun () ->
      (* idempotent: a second DRAIN on a drained daemon is unreachable *)
      ignore
        (Client.call ~attempts:2 ~seed:0 socket
           (Handler.to_frame Handler.Drain));
      Thread.join th;
      match !result with
      | Some (Ok ()) -> ()
      | Some (Error m) -> Alcotest.failf "server exited with error: %s" m
      | None -> Alcotest.fail "server produced no result")
    (fun () -> f socket)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let estimate_work ?tier ?(verify = false) ?(validate = false) ?budget bench =
  Handler.W_estimate
    { (Handler.estimate_opts bench) with
      e_verify = verify;
      e_tier = tier;
      e_validate = validate;
      e_budget_s = budget }

let local_render work =
  match Handler.execute work with
  | Ok (payload, _) -> payload
  | Error m -> Alcotest.failf "local execute failed: %s" m

(* --- protocol: round-trips --- *)

let all_tags =
  [ Protocol.Hello; Protocol.Plan; Protocol.Estimate;
    Protocol.Stats; Protocol.Health; Protocol.Drain; Protocol.Reply_ok;
    Protocol.Reply_err; Protocol.Reply_busy ]

let test_frame_roundtrip () =
  let bodies =
    [ ""; "iir"; "line one\nline two\n"; "binary \000\255\n\" bytes";
      String.make 4096 'x' ]
  in
  List.iter
    (fun tag ->
      List.iter
        (fun body ->
          let frame = { Protocol.tag; body } in
          match Protocol.decode (Protocol.encode frame) with
          | Ok f ->
            Alcotest.(check bool)
              (Printf.sprintf "%s round-trips" (Protocol.tag_name tag))
              true
              (f.Protocol.tag = tag && String.equal f.Protocol.body body)
          | Error e ->
            Alcotest.failf "%s: %s" (Protocol.tag_name tag)
              (Protocol.error_message e))
        bodies)
    all_tags

(* back-to-back frames through a real pipe exercise read_frame's
   boundary handling *)
let test_frame_stream () =
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd in
  let oc = Unix.out_channel_of_descr wr in
  let frames =
    [ { Protocol.tag = Protocol.Hello; body = "client" };
      { Protocol.tag = Protocol.Estimate; body = "iir\nvalidate=false" };
      { Protocol.tag = Protocol.Reply_ok; body = "payload\nwith lines\n" } ]
  in
  List.iter (Protocol.write_frame oc) frames;
  close_out oc;
  List.iter
    (fun expect ->
      match Protocol.read_frame ic with
      | Ok f ->
        Alcotest.(check string) "streamed body" expect.Protocol.body
          f.Protocol.body
      | Error e -> Alcotest.failf "stream: %s" (Protocol.error_message e))
    frames;
  (match Protocol.read_frame ic with
  | Error Protocol.Closed -> ()
  | _ -> Alcotest.fail "expected Closed at end of stream");
  close_in ic

(* --- protocol: typed rejection --- *)

let check_error name expected s =
  match Protocol.decode s with
  | Ok _ -> Alcotest.failf "%s: expected %s, decoded fine" name expected
  | Error e ->
    let tag =
      match e with
      | Protocol.Closed -> "closed"
      | Protocol.Truncated _ -> "truncated"
      | Protocol.Oversized _ -> "oversized"
      | Protocol.Garbage _ -> "garbage"
      | Protocol.Version_mismatch _ -> "version"
      | Protocol.Checksum_mismatch -> "checksum"
    in
    Alcotest.(check string) name expected tag

let test_typed_errors () =
  let good =
    Protocol.encode { Protocol.tag = Protocol.Estimate; body = "iir" }
  in
  check_error "empty input" "closed" "";
  check_error "header cut mid-line" "truncated" "uas/1 ESTIMATE 3";
  check_error "body shorter than declared" "truncated"
    (String.sub good 0 (String.length good - 2));
  check_error "future protocol version" "version"
    "uas/9 ESTIMATE 3 00000000000000000000000000000000\niir";
  check_error "not a frame at all" "garbage" "GET / HTTP/1.0\r\n\r\n";
  check_error "unknown tag" "garbage"
    "uas/1 FROB 3 00000000000000000000000000000000\niir";
  (* the retired SWEEP verb: a well-formed frame whose tag no longer
     exists is an unknown tag, not a backtrace *)
  (match
     Protocol.decode
       ("uas/1 SWEEP 3 " ^ Digest.to_hex (Digest.string "iir") ^ "\niir")
   with
  | Error (Protocol.Garbage m) ->
    Alcotest.(check bool) "SWEEP is an unknown tag" true
      (Astring_contains.contains ~sub:"unknown tag" m)
  | _ -> Alcotest.fail "SWEEP frame: expected Garbage");
  check_error "unparsable length" "garbage"
    "uas/1 ESTIMATE nope 00000000000000000000000000000000\niir";
  (* a declared length beyond the cap is refused before any body read *)
  (match
     Protocol.decode ~max_len:64
       (Protocol.encode
          { Protocol.tag = Protocol.Estimate; body = String.make 100 'a' })
   with
  | Error (Protocol.Oversized { len = 100; max = 64 }) -> ()
  | Error e -> Alcotest.failf "oversized: got %s" (Protocol.error_message e)
  | Ok _ -> Alcotest.fail "oversized: decoded fine");
  (* a flipped body byte fails the header checksum *)
  let corrupt = Bytes.of_string good in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  check_error "flipped body byte" "checksum" (Bytes.to_string corrupt);
  check_error "trailing junk after body" "garbage" (good ^ "extra")

(* --- handler request round-trips --- *)

let test_request_roundtrip () =
  let requests =
    [ Handler.Hello "nimblec";
      Handler.Stats;
      Handler.Health;
      Handler.Drain;
      Handler.Work
        (estimate_work ~tier:(Option.get (Fi.tier_of_string "fast"))
           ~verify:true ~validate:true ~budget:2.5 "iir");
      Handler.Work
        (estimate_work ~tier:(Option.get (Fi.tier_of_string "ref")) "fir");
      Handler.Work
        (Handler.W_plan
           { Handler.p_bench = "des-mem";
             p_objective = P.Ratio;
             p_validate = false;
             p_budget_s = None }) ]
  in
  List.iter
    (fun req ->
      match Handler.parse (Handler.to_frame req) with
      | Ok req' ->
        Alcotest.(check bool) "request round-trips" true (req = req')
      | Error m -> Alcotest.failf "parse: %s" m)
    requests;
  (* malformed bodies are one-line errors, not exceptions *)
  let reject name frame =
    match Handler.parse frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  in
  reject "empty work body" { Protocol.tag = Protocol.Estimate; body = "" };
  reject "unknown option key"
    { Protocol.tag = Protocol.Estimate; body = "iir\nfrobnicate=yes" };
  reject "bad tier"
    { Protocol.tag = Protocol.Estimate; body = "iir\ntier=slow" };
  reject "retired tier"
    { Protocol.tag = Protocol.Estimate; body = "iir\ntier=native" };
  reject "bad budget"
    { Protocol.tag = Protocol.Estimate; body = "iir\nbudget=-1" };
  reject "reply tag as request"
    { Protocol.tag = Protocol.Reply_ok; body = "" };
  (* the deleted exact-II modes: [exact=] is the unknown-key error *)
  List.iter
    (fun (tag, verb) ->
      match Handler.parse { Protocol.tag; body = "iir\nexact=report" } with
      | Error m ->
        Alcotest.(check string)
          (verb ^ " exact= is an unknown key")
          (Printf.sprintf "unknown %s key \"exact\"" verb)
          m
      | Ok _ -> Alcotest.failf "%s: exact= accepted" verb)
    [ (Protocol.Estimate, "ESTIMATE"); (Protocol.Plan, "PLAN") ]

(* --- client backoff determinism --- *)

let test_backoff_schedule () =
  let a = Client.backoff_schedule ~attempts:5 ~base_s:0.05 ~seed:42 in
  let b = Client.backoff_schedule ~attempts:5 ~base_s:0.05 ~seed:42 in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check int) "attempts-1 delays" 4 (List.length a);
  List.iteri
    (fun k d ->
      let lo = 0.05 *. (2. ** float_of_int k) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in [base*2^k, 1.5*base*2^k)" k)
        true
        (d >= lo && d < 1.5 *. lo))
    a;
  let c = Client.backoff_schedule ~attempts:5 ~base_s:0.05 ~seed:43 in
  Alcotest.(check bool) "different seed decorrelates" true (a <> c)

let test_client_unreachable () =
  (* nobody listening: bounded retries, then a typed giving-up *)
  match
    Client.call ~attempts:2 ~base_s:0.001 ~seed:7 "/nonexistent/nimbled.sock"
      (Handler.to_frame Handler.Health)
  with
  | Client.Unreachable _ -> ()
  | Client.Served _ | Client.Rejected _ ->
    Alcotest.fail "expected Unreachable from a dead address"

(* --- live daemon: cheap verbs --- *)

let test_live_verbs () =
  with_server (fun socket ->
      (match
         Client.call ~seed:0 socket (Handler.to_frame (Handler.Hello "test"))
       with
      | Client.Served s ->
        Alcotest.(check bool) "hello advertises the protocol" true
          (Astring_contains.contains ~sub:"uas/1" s)
      | _ -> Alcotest.fail "hello not served");
      (match Client.call ~seed:0 socket (Handler.to_frame Handler.Health) with
      | Client.Served s ->
        Alcotest.(check bool) "health is ok" true
          (String.length s >= 2 && String.sub s 0 2 = "ok")
      | _ -> Alcotest.fail "health not served");
      match Client.call ~seed:0 socket (Handler.to_frame Handler.Stats) with
      | Client.Served s ->
        Alcotest.(check bool) "stats carries the daemon object" true
          (Astring_contains.contains ~sub:"\"daemon\":{\"admitted\":" s)
      | _ -> Alcotest.fail "stats not served")

(* --- live daemon: served bytes = local bytes --- *)

let test_estimate_identity () =
  with_server (fun socket ->
      let work = estimate_work "iir" in
      match Client.serve_work ~seed:0 socket work with
      | Client.Served payload ->
        Alcotest.(check string) "daemon estimate = in-process estimate"
          (local_render work) payload
      | Client.Rejected m | Client.Unreachable m ->
        Alcotest.failf "estimate not served: %s" m)

let test_unknown_benchmark_rejected () =
  with_server (fun socket ->
      match
        Client.serve_work ~seed:0 socket (estimate_work "no-such-bench")
      with
      | Client.Rejected m ->
        Alcotest.(check bool) "names the known benchmarks" true
          (Astring_contains.contains ~sub:"unknown benchmark" m)
      | Client.Served _ -> Alcotest.fail "served a nonexistent benchmark"
      | Client.Unreachable m -> Alcotest.failf "daemon died: %s" m)

(* --- live daemon: concurrent clients --- *)

let concurrent_clients jobs () =
  with_server
    ~configure:(fun c ->
      { c with
        Server.c_limits = { Handler.no_limits with Handler.l_jobs = Some jobs }
      })
    (fun socket ->
      let benches = [ "iir"; "des-hw"; "skipjack-hw"; "des-mem" ] in
      let expected =
        List.map (fun b -> local_render (estimate_work b)) benches
      in
      let results = Array.make (List.length benches) None in
      let threads =
        List.mapi
          (fun i b ->
            Thread.create
              (fun () ->
                results.(i) <- Some (Client.serve_work ~seed:i socket
                                       (estimate_work b)))
              ())
          benches
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i b ->
          match results.(i) with
          | Some (Client.Served payload) ->
            Alcotest.(check string)
              (Printf.sprintf "%s served = local (jobs %d)" b jobs)
              (List.nth expected i) payload
          | Some (Client.Rejected m) | Some (Client.Unreachable m) ->
            Alcotest.failf "%s not served: %s" b m
          | None -> Alcotest.failf "%s: no outcome" b)
        benches)

(* --- live daemon: one run context per server --- *)

(* Two daemons in one process, one with a fault plan pinned to the IIR
   squash(2) cell and one without, each answering a verified IIR
   estimate at the same time: the plan fires in its own server only.
   Both servers run that cell in the scope the spec pins, so a plan
   shared between them could fire in either. *)
let test_two_servers_own_contexts () =
  let work = estimate_work ~verify:true "iir" in
  let faulted = ref None and clean = ref None in
  let ask socket seed slot =
    Thread.create
      (fun () -> slot := Some (Client.serve_work ~seed socket work))
      ()
  in
  with_server
    ~ctx:(Helpers.ctx ~plan:"rewrite.apply=IIR/squash(2):raise:1" ())
    (fun faulted_socket ->
      with_server (fun clean_socket ->
          List.iter Thread.join
            [ ask faulted_socket 0 faulted; ask clean_socket 1 clean ]));
  let payload = function
    | Some (Client.Served p) -> p
    | Some (Client.Rejected m | Client.Unreachable m) ->
      Alcotest.failf "not served: %s" m
    | None -> Alcotest.fail "no outcome"
  in
  Alcotest.(check string) "the clean server's reply = local"
    (local_render work) (payload !clean);
  let lines sub =
    List.filter (Astring_contains.contains ~sub)
      (String.split_on_char '\n' (payload !faulted))
  in
  (* Table 6.3 repeats Table 6.2's footers *)
  Alcotest.(check int) "one skip, footnoted in both tables" 2
    (List.length (lines "skipped:"));
  Alcotest.(check int) "the skip is the injected squash(2) fault" 2
    (List.length
       (List.filter
          (Astring_contains.contains ~sub:"injected fault")
          (lines "skipped: squash(2)")))

(* --- live daemon: shedding under load --- *)

let test_shed_under_load () =
  Fun.protect ~finally:(fun () -> Fault.set_stall_cap 1.0) (fun () ->
      (* the first estimate stalls 0.4 s in the dispatcher; queue depth 1
         means the second waits and the third sheds *)
      Fault.set_stall_cap 0.4;
      with_server
        ~ctx:(Helpers.ctx ~plan:"service.request=estimate:stall:1" ())
        ~configure:(fun c -> { c with Server.c_queue_depth = 1 })
        (fun socket ->
          let frame = Handler.to_frame (Handler.Work (estimate_work "iir")) in
          let fd1, ic1, oc1 = raw_connect socket in
          Protocol.write_frame oc1 frame;
          Thread.delay 0.15 (* the dispatcher picks it up and stalls *);
          let fd2, ic2, oc2 = raw_connect socket in
          Protocol.write_frame oc2 frame;
          Thread.delay 0.1 (* it queues behind the stalled request *);
          let fd3, ic3, oc3 = raw_connect socket in
          Protocol.write_frame oc3 frame;
          (match Protocol.read_frame ic3 with
          | Ok { Protocol.tag = Protocol.Reply_busy; body } ->
            Alcotest.(check bool) "shed names the reason" true
              (Astring_contains.contains ~sub:"reason=queue-full" body);
            Alcotest.(check bool) "shed carries a retry-after hint" true
              (Option.is_some (Client.retry_after_hint body))
          | Ok f ->
            Alcotest.failf "expected BUSY, got %s" (Protocol.tag_name f.tag)
          | Error e -> Alcotest.failf "conn3: %s" (Protocol.error_message e));
          (match Protocol.read_frame ic1 with
          | Ok { Protocol.tag = Protocol.Reply_err; body } ->
            Alcotest.(check bool) "stalled request degrades to ERR" true
              (Astring_contains.contains ~sub:"injected" body)
          | Ok f ->
            Alcotest.failf "expected ERR on conn1, got %s"
              (Protocol.tag_name f.tag)
          | Error e -> Alcotest.failf "conn1: %s" (Protocol.error_message e));
          (match Protocol.read_frame ic2 with
          | Ok { Protocol.tag = Protocol.Reply_ok; body } ->
            Alcotest.(check string) "queued request is served intact"
              (local_render (estimate_work "iir")) body
          | Ok f ->
            Alcotest.failf "expected OK on conn2, got %s"
              (Protocol.tag_name f.tag)
          | Error e -> Alcotest.failf "conn2: %s" (Protocol.error_message e));
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ fd1; fd2; fd3 ];
          ignore (ic1, ic2, ic3, oc1, oc2, oc3)))

(* --- live daemon: drain with in-flight work --- *)

let test_drain_with_inflight () =
  Fun.protect ~finally:(fun () -> Fault.set_stall_cap 1.0) (fun () ->
      Fault.set_stall_cap 0.4;
      with_server
        ~ctx:(Helpers.ctx ~plan:"service.request=estimate:stall:1" ())
        (fun socket ->
          let fd1, ic1, oc1 = raw_connect socket in
          Protocol.write_frame oc1
            (Handler.to_frame (Handler.Work (estimate_work "iir")));
          Thread.delay 0.15 (* in flight, stalling *);
          let fd2, ic2, oc2 = raw_connect socket in
          Protocol.write_frame oc2 (Handler.to_frame Handler.Drain);
          Thread.delay 0.05;
          (* a late request is refused, not hung: sheds BUSY while the
             acceptor lives, unreachable once it stops *)
          (match
             Client.call ~attempts:1 ~seed:0 socket
               (Handler.to_frame (Handler.Work (estimate_work "des-hw")))
           with
          | Client.Served _ -> Alcotest.fail "admitted during drain"
          | Client.Rejected _ | Client.Unreachable _ -> ());
          (* the in-flight request still completes (degraded by its
             injected stall, but answered) *)
          (match Protocol.read_frame ic1 with
          | Ok { Protocol.tag = Protocol.Reply_err; _ } -> ()
          | Ok f ->
            Alcotest.failf "expected ERR on conn1, got %s"
              (Protocol.tag_name f.tag)
          | Error e -> Alcotest.failf "conn1: %s" (Protocol.error_message e));
          (* DRAIN answers once the queue is dry *)
          (match Protocol.read_frame ic2 with
          | Ok { Protocol.tag = Protocol.Reply_ok; body = "drained" } -> ()
          | Ok f ->
            Alcotest.failf "expected OK drained, got %s %s"
              (Protocol.tag_name f.tag) f.body
          | Error e -> Alcotest.failf "conn2: %s" (Protocol.error_message e));
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ fd1; fd2 ];
          ignore (ic1, ic2, oc1, oc2)))

(* --- live daemon: containment --- *)

let test_protocol_error_contained () =
  with_server (fun socket ->
      let fd, ic, oc = raw_connect socket in
      output_string oc "this is not a frame\n";
      flush oc;
      (match Protocol.read_frame ic with
      | Ok { Protocol.tag = Protocol.Reply_err; body } ->
        Alcotest.(check bool) "typed protocol ERR" true
          (Astring_contains.contains ~sub:"protocol:" body)
      | Ok f ->
        Alcotest.failf "expected ERR, got %s" (Protocol.tag_name f.tag)
      | Error e ->
        Alcotest.failf "no reply to garbage: %s" (Protocol.error_message e));
      (* the offending connection is dropped... *)
      (match Protocol.read_frame ic with
      | Error Protocol.Closed -> ()
      | _ -> Alcotest.fail "offender not disconnected");
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ignore oc;
      (* ...and the daemon keeps serving everyone else *)
      match Client.serve_work ~seed:0 socket (estimate_work "iir") with
      | Client.Served payload ->
        Alcotest.(check string) "daemon survives garbage"
          (local_render (estimate_work "iir")) payload
      | Client.Rejected m | Client.Unreachable m ->
        Alcotest.failf "daemon degraded beyond the offender: %s" m)

let test_disconnect_contained () =
  with_server (fun socket ->
      (* enqueue a request, then vanish before the reply *)
      let fd, _ic, oc = raw_connect socket in
      Protocol.write_frame oc
        (Handler.to_frame (Handler.Work (estimate_work "iir")));
      Unix.close fd;
      Thread.delay 0.3;
      (* the daemon is still healthy and still serving *)
      (match Client.call ~seed:0 socket (Handler.to_frame Handler.Health) with
      | Client.Served _ -> ()
      | _ -> Alcotest.fail "daemon unhealthy after a disconnect");
      match Client.serve_work ~seed:0 socket (estimate_work "des-hw") with
      | Client.Served _ -> ()
      | Client.Rejected m | Client.Unreachable m ->
        Alcotest.failf "daemon degraded beyond the disconnect: %s" m)

let test_request_budget () =
  with_server (fun socket ->
      (* a microscopic budget times the request out with a typed ERR;
         the daemon survives and the abandoned worker cannot wedge it *)
      (match
         Client.serve_work ~seed:0 socket
           (estimate_work ~budget:0.0005 "des-mem")
       with
      | Client.Rejected m ->
        Alcotest.(check bool) "budget overrun is a typed timeout" true
          (Astring_contains.contains ~sub:"timed out" m)
      | Client.Served _ -> Alcotest.fail "served inside an impossible budget"
      | Client.Unreachable m -> Alcotest.failf "daemon died: %s" m);
      match Client.serve_work ~seed:0 socket (estimate_work "iir") with
      | Client.Served payload ->
        Alcotest.(check string) "daemon serves after a timeout"
          (local_render (estimate_work "iir")) payload
      | Client.Rejected m | Client.Unreachable m ->
        Alcotest.failf "daemon degraded after a timeout: %s" m)

(* --- the byte-identity property ---

   Daemon-served verified ESTIMATE output is byte-identical to the
   in-process [Experiments.run_benchmark] rendering for every registry
   benchmark on both interpreter tiers (every cell is replayed on the
   requested tier, and the tiers agree bit for bit, so the tier cannot
   change the bytes): exhaustive over the product, plus a pinned-seed
   QCheck pass over random (benchmark, tier, validate) combinations. *)

let local_estimate_render ?(validate = false) (b : R.benchmark) =
  Handler.render_estimate (E.run_benchmark ~verify:true ~validate b)

let tiers () = [ Fi.Ref; Fi.Fast ]

let test_estimate_identity_exhaustive () =
  with_server (fun socket ->
      List.iter
        (fun (b : R.benchmark) ->
          let expected = local_estimate_render b in
          List.iter
            (fun tier ->
              match
                Client.serve_work ~seed:0 socket
                  (estimate_work ~tier ~verify:true b.R.b_name)
              with
              | Client.Served payload ->
                Alcotest.(check string)
                  (Printf.sprintf "%s on %s tier" b.R.b_name
                     (Fi.tier_name tier))
                  expected payload
              | Client.Rejected m | Client.Unreachable m ->
                Alcotest.failf "%s/%s not served: %s" b.R.b_name
                  (Fi.tier_name tier) m)
            (tiers ()))
        (R.all () @ R.extras ()))

let test_estimate_identity_property () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 421)
    | None -> 421
  in
  with_server (fun socket ->
      let benches = Array.of_list (R.all () @ R.extras ()) in
      let tiers = Array.of_list (tiers ()) in
      let arb =
        QCheck.make
          ~print:(fun (bi, ti, v) ->
            Printf.sprintf "%s/%s validate=%b" benches.(bi).R.b_name
              (Fi.tier_name tiers.(ti))
              v)
          QCheck.Gen.(
            triple
              (int_bound (Array.length benches - 1))
              (int_bound (Array.length tiers - 1))
              bool)
      in
      let prop (bi, ti, validate) =
        let b = benches.(bi) in
        match
          Client.serve_work ~seed:0 socket
            (estimate_work ~tier:tiers.(ti) ~verify:true ~validate b.R.b_name)
        with
        | Client.Served payload ->
          String.equal payload (local_estimate_render ~validate b)
        | Client.Rejected _ | Client.Unreachable _ -> false
      in
      QCheck.Test.check_exn
        ~rand:(Random.State.make [| seed |])
        (QCheck.Test.make ~count:15
           ~name:"daemon estimate is byte-identical to run_benchmark" arb prop))

let suite =
  [ Alcotest.test_case "frame round-trips every tag" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frames stream through a pipe" `Quick
      test_frame_stream;
    Alcotest.test_case "malformed frames get typed errors" `Quick
      test_typed_errors;
    Alcotest.test_case "requests round-trip; bad bodies are errors" `Quick
      test_request_roundtrip;
    Alcotest.test_case "backoff schedule is deterministic" `Quick
      test_backoff_schedule;
    Alcotest.test_case "dead address is Unreachable after retries" `Quick
      test_client_unreachable;
    Alcotest.test_case "hello/health/stats verbs" `Quick test_live_verbs;
    Alcotest.test_case "daemon estimate = in-process estimate" `Quick
      test_estimate_identity;
    Alcotest.test_case "unknown benchmark is Rejected, not a crash" `Quick
      test_unknown_benchmark_rejected;
    Alcotest.test_case "4 concurrent clients at jobs 1" `Quick
      (concurrent_clients 1);
    Alcotest.test_case "4 concurrent clients at jobs 4" `Quick
      (concurrent_clients 4);
    Alcotest.test_case "two servers, two contexts, no cross-talk" `Quick
      test_two_servers_own_contexts;
    Alcotest.test_case "overload sheds BUSY with retry-after" `Quick
      test_shed_under_load;
    Alcotest.test_case "drain finishes in-flight work" `Quick
      test_drain_with_inflight;
    Alcotest.test_case "garbage costs one connection, not the daemon" `Quick
      test_protocol_error_contained;
    Alcotest.test_case "mid-request disconnect is contained" `Quick
      test_disconnect_contained;
    Alcotest.test_case "request budget times out with a typed ERR" `Quick
      test_request_budget;
    Alcotest.test_case "estimate identity: every benchmark, all tiers" `Slow
      test_estimate_identity_exhaustive;
    Alcotest.test_case "estimate identity: pinned-seed property" `Quick
      test_estimate_identity_property ]
