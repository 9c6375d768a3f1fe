(* A fixed-size Domain worker pool with deterministic, input-ordered
   results and optional supervision.  See the interface for the
   contract; the implementation notes that matter:

   - work distribution is a single [Atomic] fetch-and-add over the
     input array, so domains never contend on anything but the index;
   - each result lands in its own [Atomic] slot, resolved exactly once
     by a compare-and-set from [Pending] — a worker that finishes a
     task the watchdog already marked [Timed_out] loses the race and
     its late result is discarded;
   - the watchdog is one extra domain, spawned only when a wall budget
     is requested.  It polls each worker's published (task, start-time)
     pair, marks overrunners [Timed_out] and raises the worker's
     cancellation flag so cooperative code (the fault harness's stall,
     long-running passes that poll [Fault.cancel_requested]) can bail
     out.  A task that ignores cancellation costs its worker, never the
     pool: remaining tasks drain through the other workers and the
     stuck domain is abandoned at exit instead of joined;
   - an injected fault is retried up
     to [retries] times with exponential backoff before the task is
     declared failed. *)

let jobs_env_var = "UAS_JOBS"

let default_jobs_result () =
  match Sys.getenv_opt jobs_env_var with
  | None -> Ok (Domain.recommended_domain_count ())
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error
        (Printf.sprintf "%s must be a positive integer (got %S)" jobs_env_var
           s))

let default_jobs () =
  match default_jobs_result () with Ok n -> n | Error m -> invalid_arg m

module Task_failure = struct
  type t =
    | Raised of {
        exn : exn;
        backtrace : Printexc.raw_backtrace;
        attempts : int;
      }
    | Timed_out of { elapsed_s : float; budget_s : float }

  let to_message = function
    | Raised { exn; attempts; _ } ->
      if attempts > 1 then
        Printf.sprintf "task failed after %d attempts: %s" attempts
          (Printexc.to_string exn)
      else Printf.sprintf "task failed: %s" (Printexc.to_string exn)
    | Timed_out { elapsed_s; budget_s } ->
      Printf.sprintf "task timed out after %.2fs (budget %.2fs)" elapsed_s
        budget_s

  let pp ppf t = Fmt.string ppf (to_message t)
end

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of Task_failure.t

let slot_resolved s = match s with Pending -> false | Done _ | Failed _ -> true

let site = "parallel.task"

(* One attempt cycle for one input: the fault-injection site, then the
   task itself, retried while the failure is an injected fault. *)
let run_task (ctx : Ctx.t) ~retries ~retry_backoff_s f x ~label :
    ('b, Task_failure.t) result =
  let rec attempt k =
    match
      Fault.raise_if_armed ctx.faults ~scope:ctx.scope ~label site;
      f x
    with
    | v -> Ok v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if k <= retries && Fault.is_injected e then begin
        Instrument.incr ctx.trace "pool.retries";
        if retry_backoff_s > 0.0 then
          Unix.sleepf (retry_backoff_s *. float_of_int (1 lsl (k - 1)));
        attempt (k + 1)
      end
      else Error (Task_failure.Raised { exn = e; backtrace = bt; attempts = k })
  in
  attempt 1

let map_results ?(ctx = Ctx.default ()) ?jobs ?timeout_s ?(retries = 0)
    ?(retry_backoff_s = 0.01) (f : 'a -> 'b) (xs : 'a list) :
    ('b, Task_failure.t) result list =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.map_results: jobs must be >= 1";
  if retries < 0 then invalid_arg "Parallel.map_results: retries must be >= 0";
  let run_task = run_task ctx ~retries ~retry_backoff_s f in
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else if min jobs n <= 1 && timeout_s = None then
    (* sequential, unsupervised: no pool, no watchdog, no atomics *)
    List.mapi (fun i x -> run_task x ~label:(string_of_int i)) xs
  else begin
    let workers = min jobs n in
    let slots = Array.init n (fun _ -> Atomic.make Pending) in
    let next = Atomic.make 0 in
    (* per-worker supervision state: the running (task, start) pair the
       watchdog polls, the cancellation flag it raises, and the
       completion flag the join phase waits on *)
    let current = Array.init workers (fun _ -> Atomic.make None) in
    let cancels = Array.init workers (fun _ -> Atomic.make false) in
    let finished = Array.init workers (fun _ -> Atomic.make false) in
    let worker w () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Atomic.set cancels.(w) false;
          Fault.set_cancel (Some cancels.(w));
          Atomic.set current.(w) (Some (i, Unix.gettimeofday ()));
          let outcome = run_task items.(i) ~label:(string_of_int i) in
          Atomic.set current.(w) None;
          Fault.set_cancel None;
          let resolved =
            match outcome with Ok v -> Done v | Error tf -> Failed tf
          in
          (* the watchdog may have resolved the slot [Timed_out] while
             we ran: first write wins, a late result is dropped *)
          ignore (Atomic.compare_and_set slots.(i) Pending resolved);
          go ()
        end
      in
      go ();
      Atomic.set finished.(w) true
    in
    let stop_watchdog = Atomic.make false in
    let watchdog =
      match timeout_s with
      | None -> None
      | Some budget_s ->
        Some
          (Domain.spawn (fun () ->
               let poll = Float.min 0.005 (Float.max 0.001 (budget_s /. 4.0)) in
               while not (Atomic.get stop_watchdog) do
                 Unix.sleepf poll;
                 let now = Unix.gettimeofday () in
                 Array.iteri
                   (fun w cur ->
                     match Atomic.get cur with
                     | Some (i, t0) when now -. t0 > budget_s ->
                       if
                         Atomic.compare_and_set slots.(i) Pending
                           (Failed
                              (Task_failure.Timed_out
                                 { elapsed_s = now -. t0; budget_s }))
                       then begin
                         Instrument.incr ctx.trace "pool.timed-out";
                         Atomic.set cancels.(w) true
                       end
                     | _ -> ())
                   current
               done))
    in
    let helpers =
      List.init (workers - 1) (fun k -> (k + 1, Domain.spawn (worker (k + 1))))
    in
    worker 0 ();
    (match watchdog with
    | None ->
      (* unsupervised: every worker terminates (tasks may raise but not
         stall), so a plain join drains the pool *)
      List.iter (fun (_, d) -> Domain.join d) helpers
    | Some wd ->
      (* supervised: wait for every slot to resolve — each Pending slot
         belongs to a running worker, which either finishes it or gets
         timed out by the watchdog — then join the workers that
         completed and abandon any that ignored cancellation *)
      let all_resolved () =
        Array.for_all (fun s -> slot_resolved (Atomic.get s)) slots
      in
      while not (all_resolved ()) do
        Unix.sleepf 0.001
      done;
      List.iter
        (fun (w, d) ->
          let deadline = Unix.gettimeofday () +. 0.5 in
          let rec wait_join () =
            if Atomic.get finished.(w) then Domain.join d
            else if Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.002;
              wait_join ()
            end
            else
              (* stuck past its budget and deaf to cancellation: the
                 domain is leaked rather than hanging the pool *)
              Instrument.incr ctx.trace "pool.abandoned-workers"
          in
          wait_join ())
        helpers;
      Atomic.set stop_watchdog true;
      Domain.join wd);
    (match watchdog with
    | Some _ -> ()
    | None -> Atomic.set stop_watchdog true);
    List.init n (fun i ->
        match Atomic.get slots.(i) with
        | Done v -> Ok v
        | Failed tf -> Error tf
        | Pending -> assert false)
  end

let map ?jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let results = map_results ?jobs f xs in
  (* fail like a sequential run: the earliest failed input's exception,
     with its original backtrace *)
  List.iter
    (function
      | Error (Task_failure.Raised { exn; backtrace; _ }) ->
        Printexc.raise_with_backtrace exn backtrace
      | Error (Task_failure.Timed_out _ as tf) ->
        (* unreachable: [map] never sets a wall budget *)
        failwith (Task_failure.to_message tf)
      | Ok _ -> ())
    results;
  List.map (function Ok v -> v | Error _ -> assert false) results

let map_reduce ?jobs ~map:fm ~reduce ~init xs =
  List.fold_left reduce init (map ?jobs fm xs)
