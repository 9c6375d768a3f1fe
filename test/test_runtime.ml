(* The runtime subsystem: the Domain pool (ordering, exception
   propagation, UAS_JOBS), the pass instrumentation registry (spans,
   counters, thread safety, JSON), and the shared command-line session
   term. *)

module Parallel = Uas_runtime.Parallel
module Instrument = Uas_runtime.Instrument
module Fault = Uas_runtime.Fault
module Session = Uas_cli.Session

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- Parallel --- *)

let test_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Parallel.map ~jobs f xs))
    [ 1; 2; 4; 8; 101 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Parallel.map ~jobs:4 succ [ 1 ])

let test_map_preserves_order_under_skew () =
  (* earlier items do more work than later ones, so a pool that
     collected results in completion order would reverse them *)
  let xs = List.init 32 Fun.id in
  let f x =
    let spin = (32 - x) * 10_000 in
    let acc = ref x in
    for _ = 1 to spin do
      acc := !acc lxor ((!acc * 31) + 7)
    done;
    ignore !acc;
    x
  in
  Alcotest.(check (list int)) "input order" xs (Parallel.map ~jobs:4 f xs)

exception Boom of int

let test_map_reraises_first_input_failure () =
  let f x = if x = 3 || x = 7 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f (List.init 10 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
        Alcotest.(check int)
          (Printf.sprintf "first input-order failure (jobs=%d)" jobs)
          3 n)
    [ 1; 4 ]

let test_map_failure_still_completes_rest () =
  (* a failing task never cancels its siblings: the pool drains *)
  let completed = Atomic.make 0 in
  let f x =
    if x = 0 then failwith "first"
    else begin
      Atomic.incr completed;
      x
    end
  in
  (match Parallel.map ~jobs:4 f (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected the failure to re-raise"
  | exception Failure m -> Alcotest.(check string) "earliest failure" "first" m);
  Alcotest.(check int) "remaining tasks completed" 7 (Atomic.get completed)

let test_map_reduce () =
  let total =
    Parallel.map_reduce ~jobs:4 ~map:Fun.id ~reduce:( + ) ~init:0
      (List.init 100 succ)
  in
  Alcotest.(check int) "sum 1..100" 5050 total;
  (* non-commutative reduce still folds in input order *)
  let concat =
    Parallel.map_reduce ~jobs:4 ~map:string_of_int ~reduce:( ^ ) ~init:""
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check string) "ordered fold" "12345" concat

let test_default_jobs_env () =
  Unix.putenv Parallel.jobs_env_var "3";
  Alcotest.(check int) "UAS_JOBS=3" 3 (Parallel.default_jobs ());
  Unix.putenv Parallel.jobs_env_var "not-a-number";
  (match Parallel.default_jobs () with
  | _ -> Alcotest.fail "malformed UAS_JOBS accepted"
  | exception Invalid_argument _ -> ());
  Unix.putenv Parallel.jobs_env_var "0";
  (match Parallel.default_jobs () with
  | _ -> Alcotest.fail "UAS_JOBS=0 accepted"
  | exception Invalid_argument _ -> ());
  (* leave a sane value behind for any later default-jobs caller *)
  Unix.putenv Parallel.jobs_env_var "2"

let test_default_jobs_result () =
  Unix.putenv Parallel.jobs_env_var "3";
  (match Parallel.default_jobs_result () with
  | Ok n -> Alcotest.(check int) "UAS_JOBS=3" 3 n
  | Error m -> Alcotest.failf "unexpected error %s" m);
  Unix.putenv Parallel.jobs_env_var "zero";
  (match Parallel.default_jobs_result () with
  | Ok _ -> Alcotest.fail "malformed UAS_JOBS accepted"
  | Error m ->
    Alcotest.(check bool) "message names the value" true
      (contains ~affix:"zero" m));
  Unix.putenv Parallel.jobs_env_var "2"

(* --- the supervised pool --- *)

let faulty plan = Helpers.ctx ~plan ()

let test_map_results_per_cell () =
  let f x = if x = 3 then raise (Boom x) else x * 2 in
  List.iter
    (fun jobs ->
      let rs = Parallel.map_results ~jobs f (List.init 6 Fun.id) in
      Alcotest.(check int) "one result per input" 6 (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok y ->
            (* the failure stayed in its own cell: every other task
               still completed *)
            Alcotest.(check bool)
              (Printf.sprintf "input %d succeeded (jobs=%d)" i jobs)
              true (i <> 3);
            Alcotest.(check int) "value" (i * 2) y
          | Error (Parallel.Task_failure.Raised { exn = Boom n; attempts; _ })
            ->
            Alcotest.(check int) "the failing input" 3 i;
            Alcotest.(check int) "its payload" 3 n;
            Alcotest.(check int) "single attempt without retries" 1 attempts
          | Error tf ->
            Alcotest.failf "unexpected failure: %s"
              (Parallel.Task_failure.to_message tf))
        rs)
    [ 1; 4 ]

(* A stalled task is marked Timed_out by the watchdog and its slot
   resolved, so the pool drains — at any size, including a single
   worker. *)
let test_map_results_timeout_drains () =
  Fault.set_stall_cap 10.0 (* far past the budget: the watchdog must act *);
  Fun.protect
    ~finally:(fun () -> Fault.set_stall_cap 1.0)
    (fun () ->
      List.iter
        (fun jobs ->
          let rs =
            Parallel.map_results ~ctx:(faulty "parallel.task=2:stall:1") ~jobs
              ~timeout_s:0.1 succ (List.init 5 Fun.id)
          in
          List.iteri
            (fun i r ->
              match r with
              | Ok y ->
                Alcotest.(check bool)
                  (Printf.sprintf "only input 2 times out (jobs=%d)" jobs)
                  true (i <> 2);
                Alcotest.(check int) "value" (i + 1) y
              | Error (Parallel.Task_failure.Timed_out { budget_s; _ }) ->
                Alcotest.(check int) "the stalled input" 2 i;
                Alcotest.(check (float 1e-9)) "budget recorded" 0.1 budget_s
              | Error tf ->
                Alcotest.failf "unexpected failure: %s"
                  (Parallel.Task_failure.to_message tf))
            rs)
        [ 1; 4 ])

(* An injected fault is retryable: with a retry budget the task
   succeeds on its second attempt (the spec fires exactly once) and the
   retry is counted in the context's sink. *)
let test_map_results_retries_injected () =
  let trace = Instrument.create () in
  let rs =
    Parallel.map_results
      ~ctx:(Helpers.ctx ~plan:"parallel.task=1:raise:1" ~trace ())
      ~jobs:2 ~retries:1 ~retry_backoff_s:0.001 succ (List.init 4 Fun.id)
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "value" (i + 1) y
      | Error tf ->
        Alcotest.failf "input %d not retried: %s" i
          (Parallel.Task_failure.to_message tf))
    rs;
  match List.assoc_opt "pool.retries" (Instrument.counters trace) with
  | Some n -> Alcotest.(check int) "one retry recorded" 1 n
  | None -> Alcotest.fail "pool.retries not counted"

(* Without a retry budget the injected fault surfaces as that cell's
   Raised failure, attempts = 1. *)
let test_map_results_injected_not_retried () =
  let rs =
    Parallel.map_results ~ctx:(faulty "parallel.task=1:raise:1") ~jobs:2 succ
      (List.init 4 Fun.id)
  in
  match List.nth rs 1 with
  | Error (Parallel.Task_failure.Raised { exn; attempts; _ }) ->
    Alcotest.(check bool) "injected" true (Fault.is_injected exn);
    Alcotest.(check int) "no retries" 1 attempts
  | Ok _ -> Alcotest.fail "expected the injected failure"
  | Error tf ->
    Alcotest.failf "unexpected failure: %s"
      (Parallel.Task_failure.to_message tf)

(* --- fault plans --- *)

let test_fault_grammar () =
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed plan %S" bad
      | Error _ -> ())
    [ ""; "nonsense"; "pass.run:raise"; "pass.run:explode:1";
      "pass.run:raise:0"; "pass.run:raise:x"; ":raise:1" ];
  Alcotest.(check bool) "the empty plan never fires" true
    (Fault.hit Fault.none ~scope:[] "pass.run" = None);
  Alcotest.(check string) "the empty plan echoes nothing" ""
    (Fault.to_string Fault.none);
  Alcotest.(check string)
    "plan echoed" "pass.run:raise:2,rewrite.apply:corrupt:1"
    (Fault.to_string (faulty "pass.run:raise:2,rewrite.apply:corrupt:1").faults)

let test_fault_nth_counting () =
  let plan = "pass.run:raise:2" in
  let f = (faulty plan).faults in
  let hit ?(f = f) site = Fault.hit f ~scope:[] site in
  Alcotest.(check bool) "1st hit clean" true (hit "pass.run" = None);
  (match hit "pass.run" with
  | Some Fault.Raise -> ()
  | _ -> Alcotest.fail "2nd hit must fire");
  Alcotest.(check bool) "3rd hit clean (fires exactly once)" true
    (hit "pass.run" = None);
  Alcotest.(check bool) "other site never matches" true
    (hit "rewrite.apply" = None);
  (* a second parse of the same text counts from zero *)
  let g = (faulty plan).faults in
  Alcotest.(check bool) "fresh counters: 1st hit clean" true
    (hit ~f:g "pass.run" = None);
  Alcotest.(check bool) "fresh counters: 2nd hit fires" true
    (hit ~f:g "pass.run" = Some Fault.Raise)

(* A spec pinned to a label fires on hits carrying it, or on hits made
   under a context scoped to it — which is how a spec lands on one
   (benchmark, version) cell — and never in a sibling context. *)
let test_fault_label_and_scope () =
  let module Ctx = Uas_runtime.Ctx in
  let ctx = faulty "rewrite.apply=IIR/squash(2):raise:1" in
  let hit ?label (c : Ctx.t) =
    Fault.hit c.faults ~scope:c.scope ?label "rewrite.apply"
  in
  let cell = Ctx.in_scope ctx "IIR/squash(2)" in
  let sibling = Ctx.in_scope ctx "IIR/jam(2)" in
  List.iter
    (fun (name, fired) -> Alcotest.(check bool) name false fired)
    [ ("other label", hit ~label:"jam" ctx <> None);
      ("no scope", hit ctx <> None);
      ("sibling scope", hit ~label:"squash" sibling <> None);
      ("nested in a sibling", hit (Ctx.in_scope sibling "squash") <> None) ];
  Alcotest.(check bool) "fires in the pinned scope" true
    (hit ~label:"squash" cell = Some Fault.Raise);
  Alcotest.(check bool) "fires exactly once" true
    (hit ~label:"squash" cell = None);
  Alcotest.(check (list string))
    "scopes nest innermost first; the parent keeps none"
    [ "inner"; "IIR/squash(2)" ]
    ((Ctx.in_scope cell "inner").scope @ ctx.scope)

(* --- Instrument --- *)

let test_instrument_disabled_is_noop () =
  Alcotest.(check int) "span runs the thunk" 42
    (Instrument.span Instrument.off "noop" (fun () -> 42));
  Instrument.incr Instrument.off "noop-counter";
  Alcotest.(check bool) "nothing recorded" true
    (Instrument.spans Instrument.off = []
    && Instrument.counters Instrument.off = [])

let test_instrument_records () =
  let t = Instrument.create () in
  for _ = 1 to 5 do
    ignore (Instrument.span t "pass-a" (fun () -> Sys.opaque_identity 1))
  done;
  Instrument.incr t "cells";
  Instrument.incr ~by:4 t "cells";
  (match List.assoc_opt "pass-a" (Instrument.spans t) with
  | None -> Alcotest.fail "span pass-a missing"
  | Some s ->
    Alcotest.(check int) "calls" 5 s.Instrument.calls;
    Alcotest.(check bool) "total >= max" true
      (s.Instrument.total_s >= s.Instrument.max_s));
  Alcotest.(check (list (pair string int)))
    "counter" [ ("cells", 5) ] (Instrument.counters t);
  (* spans record through exceptions too *)
  (try Instrument.span t "pass-b" (fun () -> failwith "x")
   with Failure _ -> ());
  (match List.assoc_opt "pass-b" (Instrument.spans t) with
  | Some s -> Alcotest.(check int) "exceptional call counted" 1 s.Instrument.calls
  | None -> Alcotest.fail "span pass-b missing");
  let json = Instrument.to_json t in
  Alcotest.(check bool) "json mentions spans and counters" true
    (contains ~affix:"\"pass-a\"" json
    && contains ~affix:"\"cells\":5" json);
  Alcotest.(check bool) "a second sink records apart" true
    (Instrument.spans (Instrument.create ()) = [])

let test_instrument_thread_safe () =
  let t = Instrument.create () in
  let _ =
    Parallel.map ~jobs:4
      (fun i ->
        Instrument.span t "par-span" (fun () -> Sys.opaque_identity i)
        |> ignore;
        Instrument.incr t "par-count";
        i)
      (List.init 200 Fun.id)
  in
  (match List.assoc_opt "par-span" (Instrument.spans t) with
  | Some s -> Alcotest.(check int) "all spans recorded" 200 s.Instrument.calls
  | None -> Alcotest.fail "par-span missing");
  Alcotest.(check (list (pair string int)))
    "all increments recorded" [ ("par-count", 200) ] (Instrument.counters t)

(* --- the shared command surface (Uas_cli.Session) --- *)

let base =
  { Session.jobs = None;
    tier = None;
    fault = None;
    cache = None;
    cache_verify = false;
    task_timeout = None;
    retries = None;
    validate = false;
    timings = false }

(* [Session.term] on [args] with an empty environment: the session, or
   Cmdliner's parse error joined onto one line *)
let eval_session args =
  let err = Buffer.create 256 in
  let err_ppf = Format.formatter_of_buffer err in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") Session.term in
  let result =
    Cmdliner.Cmd.eval_value ~help:quiet ~err:err_ppf ~env:(fun _ -> None)
      ~argv:(Array.of_list ("t" :: args))
      cmd
  in
  Format.pp_print_flush err_ppf ();
  match result with
  | Ok (`Ok s) -> Ok s
  | Ok (`Help | `Version) | Error _ ->
    Error
      (String.split_on_char '\n' (Buffer.contents err)
      |> List.map String.trim |> String.concat " ")

let test_session_flags () =
  List.iter
    (fun (args, expected) ->
      let name = String.concat " " args in
      match eval_session args with
      | Ok s -> Alcotest.(check bool) (name ^ " parses") true (s = expected)
      | Error e -> Alcotest.failf "%s rejected: %s" name e)
    [ ([], base);
      ([ "-j"; "4" ], { base with Session.jobs = Some 4 });
      ([ "--jobs"; "2" ], { base with Session.jobs = Some 2 });
      ( [ "--interp"; "ref" ],
        { base with Session.tier = Some Uas_ir.Fast_interp.Ref } );
      ( [ "--interp"; "fast" ],
        { base with Session.tier = Some Uas_ir.Fast_interp.Fast } );
      ( [ "--fault"; "pass.run:raise:1" ],
        { base with Session.fault = Some "pass.run:raise:1" } );
      ( [ "--cache"; "/tmp/uas-store" ],
        { base with Session.cache = Some "/tmp/uas-store" } );
      ([ "--cache-verify" ], { base with Session.cache_verify = true });
      ( [ "--task-timeout"; "2.5" ],
        { base with Session.task_timeout = Some 2.5 } );
      ([ "--retries"; "0" ], { base with Session.retries = Some 0 });
      ([ "--validate"; "probe" ], { base with Session.validate = true });
      ([ "--timings" ], { base with Session.timings = true }) ];
  (* every rejection is a parse error naming the valid values; -j takes
     the UAS_JOBS wording *)
  List.iter
    (fun (args, affix) ->
      let name = String.concat " " args in
      match eval_session args with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S in %S" name affix e)
          true (contains ~affix e))
    [ ([ "-j"; "0" ], "must be a positive integer");
      ([ "-j"; "lots" ], "must be a positive integer");
      ([ "--interp"; "native" ], Uas_ir.Fast_interp.valid_tiers);
      ([ "--interp"; "turbo" ], Uas_ir.Fast_interp.valid_tiers);
      ([ "--validate"; "maybe" ], "probe");
      (* the deleted second-oracle flag is an unknown option *)
      ([ "--exact-ii"; "report" ], "unknown option");
      ([ "--task-timeout"; "0" ], Uas_runtime.Budget.timeout_range);
      ([ "--task-timeout"; "nan" ], Uas_runtime.Budget.timeout_range);
      ([ "--retries"; "1000" ], Uas_runtime.Budget.retries_range) ]

(* The shared budget-flag validator behind nimblec, bench/main.exe and
   nimbled: nonsensical values are structured diagnostics that name
   the valid range. *)
let test_budget_validator () =
  let module Budget = Uas_runtime.Budget in
  (match Budget.timeout_of_string ~flag:"--task-timeout" "2.5" with
  | Ok t -> Alcotest.(check (float 0.0)) "valid timeout" 2.5 t
  | Error m -> Alcotest.failf "valid timeout rejected: %s" m);
  (match Budget.retries_of_string ~flag:"--retries" "0" with
  | Ok n -> Alcotest.(check int) "zero retries is valid" 0 n
  | Error m -> Alcotest.failf "zero retries rejected: %s" m);
  let reject_timeout name s =
    match Budget.timeout_of_string ~flag:"--task-timeout" s with
    | Ok _ -> Alcotest.failf "%s: accepted %s" name s
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the flag and range" name)
        true
        (Astring_contains.contains ~sub:"--task-timeout" m
        && Astring_contains.contains ~sub:Budget.timeout_range m)
  in
  List.iter
    (fun (name, s) -> reject_timeout name s)
    [ ("zero", "0"); ("negative", "-3"); ("nan", "nan");
      ("infinite", "inf"); ("beyond the cap", "1e9"); ("noise", "soon") ];
  let reject_retries name s =
    match Budget.retries_of_string ~flag:"--retries" s with
    | Ok _ -> Alcotest.failf "%s: accepted %s" name s
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the flag and range" name)
        true
        (Astring_contains.contains ~sub:"--retries" m
        && Astring_contains.contains ~sub:Budget.retries_range m)
  in
  List.iter
    (fun (name, s) -> reject_retries name s)
    [ ("negative", "-1"); ("beyond the cap", "1000"); ("noise", "many");
      ("fractional", "1.5") ]

let suite =
  [ Alcotest.test_case "Parallel.map = List.map" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "Parallel.map edge sizes" `Quick
      test_map_empty_and_singleton;
    Alcotest.test_case "Parallel.map order under skew" `Quick
      test_map_preserves_order_under_skew;
    Alcotest.test_case "Parallel.map re-raises first failure" `Quick
      test_map_reraises_first_input_failure;
    Alcotest.test_case "Parallel.map failure drains siblings" `Quick
      test_map_failure_still_completes_rest;
    Alcotest.test_case "Parallel.map_reduce" `Quick test_map_reduce;
    Alcotest.test_case "UAS_JOBS parsing" `Quick test_default_jobs_env;
    Alcotest.test_case "UAS_JOBS result API" `Quick test_default_jobs_result;
    Alcotest.test_case "map_results per-cell outcomes" `Quick
      test_map_results_per_cell;
    Alcotest.test_case "map_results timeout drains the pool" `Quick
      test_map_results_timeout_drains;
    Alcotest.test_case "map_results retries injected faults" `Quick
      test_map_results_retries_injected;
    Alcotest.test_case "map_results injected fault is per-cell" `Quick
      test_map_results_injected_not_retried;
    Alcotest.test_case "Fault plan grammar" `Quick test_fault_grammar;
    Alcotest.test_case "Fault nth counting" `Quick test_fault_nth_counting;
    Alcotest.test_case "Fault labels and scopes" `Quick
      test_fault_label_and_scope;
    Alcotest.test_case "Instrument disabled = no-op" `Quick
      test_instrument_disabled_is_noop;
    Alcotest.test_case "Instrument records spans/counters" `Quick
      test_instrument_records;
    Alcotest.test_case "Instrument under the pool" `Quick
      test_instrument_thread_safe;
    Alcotest.test_case "session term: shared flags" `Quick test_session_flags;
    Alcotest.test_case "shared budget-flag validator" `Quick
      test_budget_validator ]
