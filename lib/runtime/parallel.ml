(* A fixed-size Domain worker pool with deterministic, input-ordered
   results and optional supervision.  See the interface for the
   contract; the implementation notes that matter:

   - work distribution is a single [Atomic] fetch-and-add over the
     input array, so domains never contend on anything but the index;
   - each result lands in its own [Atomic] slot, resolved exactly once
     by a compare-and-set from [Pending] — a worker that finishes a
     task the watchdog already marked [Timed_out] loses the race and
     its late result is discarded;
   - workers other than the caller run on helper domains that outlive
     the fan-out: a helper waits in a small idle set for the next job
     instead of being joined (see [helper_loop]);
   - under a wall budget every worker is a helper and the calling
     domain is the watchdog.  It polls each worker's published
     (task, start-time) pair, marks overrunners [Timed_out] and raises
     the worker's cancellation flag so cooperative code (the fault
     harness's stall, long-running passes that poll
     [Fault.cancel_requested]) can bail out.  A task that ignores
     cancellation costs its helper, never the pool or the caller: the
     remaining tasks drain through the other workers, and the stuck
     helper rejoins the idle set whenever it finishes;
   - a task that raises, an injected fault included, fails its own cell
     and nothing else: there is no retry;
   - a helper that cannot be spawned (OCaml 5.1's limit of 128 domains)
     leaves its tasks to the workers already running. *)

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
    | Raised of { exn : exn }
    | Timed_out of { elapsed_s : float; budget_s : float }

  let to_message = function
    | Raised { exn } ->
      Printf.sprintf "task failed: %s" (Printexc.to_string exn)
    | Timed_out { elapsed_s; budget_s } ->
      Printf.sprintf "task timed out after %.2fs (budget %.2fs)" elapsed_s
        budget_s
end

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of Task_failure.t

let slot_resolved s = match s with Pending -> false | Done _ | Failed _ -> true

let site = "parallel.task"

(* One input: the fault-injection site, then the task itself. *)
let run_task (ctx : Ctx.t) f x ~label : ('b, Task_failure.t) result =
  match
    Fault.raise_if_armed ctx.faults ~scope:ctx.scope ~label site;
    f x
  with
  | v -> Ok v
  | exception e -> Error (Task_failure.Raised { exn = e })

(* ---- helper domains, kept across fan-outs ---- *)

(* A helper is a domain that runs one job, then waits in the idle set
   for the next.  Spawning and joining fresh domains for every fan-out
   stops OCaml 5.1 from reusing the major heap, so helpers are kept;
   but an idle domain still takes part in every stop-the-world minor
   collection, so at most [idle_cap] of them wait, and a helper whose
   job ends while the set is full exits.  The set holds idle domains
   and nothing else: no result can depend on it.  [lock] guards the set
   and every helper's [job]. *)
type helper = {
  wake : Condition.t;
  mutable job : ((unit -> unit) * (unit -> unit)) option;
}

let lock = Mutex.create ()
let idle : helper list ref = ref []
let idle_cap = max 1 (Domain.recommended_domain_count () - 1)

(* OCaml 5.1 runs at most 128 domains, the main one included; one call
   asks for at most this many helpers, leaving a spare for a caller
   that is not the main domain. *)
let helper_cap = 126

(* Runs with [lock] held; returns with it released.  A job is [run],
   which must not raise, then [finished], called with [lock] held once
   the helper is back in the idle set (or about to exit), so a caller
   it wakes never finds its helper still busy. *)
let rec helper_loop h =
  match h.job with
  | None ->
    Condition.wait h.wake lock;
    helper_loop h
  | Some (run, finished) ->
    h.job <- None;
    Mutex.unlock lock;
    run ();
    Mutex.lock lock;
    let keep = List.length !idle < idle_cap in
    if keep then idle := h :: !idle;
    finished ();
    if keep then helper_loop h else Mutex.unlock lock

(* Start a job on an idle helper, or on a new one when none is idle.
   [false] when no domain could be spawned: the job never runs. *)
let on_helper (ctx : Ctx.t) ~run ~finished =
  Mutex.lock lock;
  match !idle with
  | h :: rest ->
    idle := rest;
    h.job <- Some (run, finished);
    Condition.signal h.wake;
    Mutex.unlock lock;
    true
  | [] -> (
    Mutex.unlock lock;
    let h = { wake = Condition.create (); job = Some (run, finished) } in
    match
      Domain.spawn (fun () ->
          Mutex.lock lock;
          helper_loop h)
    with
    | _ ->
      Instrument.incr ctx.trace "pool.spawned";
      true
    | exception Failure _ -> false)

let map_results ?(ctx = Ctx.default ()) ?jobs ?timeout_s (f : 'a -> 'b)
    (xs : 'a list) : ('b, Task_failure.t) result list =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.map_results: jobs must be >= 1";
  let run_task = run_task ctx f in
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else if min jobs n <= 1 && timeout_s = None then
    (* sequential, unsupervised: no helper, no watchdog, no atomics *)
    List.mapi (fun i x -> run_task x ~label:(string_of_int i)) xs
  else begin
    (* under a wall budget every worker is a helper and the caller is
       the watchdog; otherwise the caller is worker 0 *)
    let first = if timeout_s = None then 1 else 0 in
    let workers = min (min jobs n) (helper_cap + first) in
    let slots = Array.init n (fun _ -> Atomic.make Pending) in
    let next = Atomic.make 0 in
    (* per-worker supervision state: the running (task, start) pair the
       watchdog polls and the cancellation flag it raises *)
    let current = Array.init workers (fun _ -> Atomic.make None) in
    let cancels = Array.init workers (fun _ -> Atomic.make false) in
    let rec worker w () =
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
        worker w ()
      end
    in
    (* [running] counts the helpers still at work, guarded by [lock] *)
    let running = ref (workers - first) and all_done = Condition.create () in
    for w = first to workers - 1 do
      if
        not
          (on_helper ctx ~run:(worker w) ~finished:(fun () ->
               decr running;
               Condition.signal all_done))
      then begin
        (* its tasks stay in the queue for the running workers *)
        Mutex.lock lock;
        decr running;
        Mutex.unlock lock
      end
    done;
    let helpers_running () =
      Mutex.lock lock;
      let r = !running in
      Mutex.unlock lock;
      r
    in
    (* under a wall budget with no helper started at all, the caller
       runs the tasks itself, unsupervised *)
    let budget =
      if first = 0 && helpers_running () = 0 then None else timeout_s
    in
    (match budget with
    | None ->
      (* every worker terminates (tasks may raise but not stall), so
         waiting drains the pool *)
      worker 0 ();
      Mutex.lock lock;
      while !running > 0 do
        Condition.wait all_done lock
      done;
      Mutex.unlock lock
    | Some budget_s ->
      (* the watchdog polls each worker's (task, start) pair, marks
         overrunners [Timed_out] and raises their cancellation flag,
         until every slot is resolved — each Pending slot belongs to a
         running worker, which either finishes it or gets timed out.
         Then it waits briefly for the workers to return; one deaf to
         cancellation is left to finish on its own, and rejoins the
         idle set when it does. *)
      let all_resolved () =
        Array.for_all (fun s -> slot_resolved (Atomic.get s)) slots
      in
      while not (all_resolved ()) do
        Unix.sleepf 0.001;
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
      done;
      let deadline = Unix.gettimeofday () +. 0.5 in
      while helpers_running () > 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.002
      done;
      let stuck = helpers_running () in
      if stuck > 0 then
        Instrument.incr ~by:stuck ctx.trace "pool.abandoned-workers");
    List.init n (fun i ->
        match Atomic.get slots.(i) with
        | Done v -> Ok v
        | Failed tf -> Error tf
        | Pending -> assert false)
  end
