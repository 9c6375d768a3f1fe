(* What every workload shares: the run context, the tally of attempted
   and failed operations, per-layer sums, and small filesystem and
   process helpers.  Paths are relative to the repository root, which
   is the working directory of a run. *)

module Store = Uas_runtime.Store

(* The pool width of every workload: each request fans its cells out
   over two domains, the core count of the machine the bounds were set
   on. *)
let jobs = 2

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;  (** one pass per step: the build check, not a measurement *)
  trace : Trace.t option;
  nimbled : string;
  work : string;  (** this run's scratch directory *)
  calib : Calib.t;
}

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable setups : float list;  (** seconds, one per set-up *)
  mutable passes : float list;  (** untraced pass wall times, seconds *)
  mutable traced_passes : float list;
  mutable reqs : float list;  (** request latencies, milliseconds *)
      (* all four raw: the run's calibration scales them at the end *)
  layer : (string, float) Hashtbl.t;  (** per-layer sums over traced passes *)
  mutable notes : string list;  (** report lines, newest first *)
  mutable peak_rss_kb : int option;  (** set when the measured process is not this one *)
  mutable few_requests : bool;
      (** one request per pass, so a run holds too few for a p90 with
          ten samples above it *)
}

let new_acc () =
  { attempted = 0;
    failed = 0;
    problems = [];
    setups = [];
    passes = [];
    traced_passes = [];
    reqs = [];
    layer = Hashtbl.create 64;
    notes = [];
    peak_rss_kb = None;
    few_requests = false }

(* One operation (a pass, a request, a validity gate) and whether it
   produced the right result. *)
let check acc ok fmt =
  Printf.ksprintf
    (fun msg ->
      acc.attempted <- acc.attempted + 1;
      if not ok then begin
        acc.failed <- acc.failed + 1;
        acc.problems <- msg :: acc.problems
      end)
    fmt

let note acc fmt = Printf.ksprintf (fun m -> acc.notes <- m :: acc.notes) fmt
let get acc k = Option.value ~default:0.0 (Hashtbl.find_opt acc.layer k)
let add acc k v = Hashtbl.replace acc.layer k (get acc k +. v)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let add_setup acc dt = acc.setups <- dt :: acc.setups
let add_pass acc dt = acc.passes <- dt :: acc.passes
let add_req acc dt = acc.reqs <- (1000.0 *. dt) :: acc.reqs

(* Run [pass i] for i = 0, 1, ... until [seconds] have gone by and at
   least [min_passes] passes are made (at most three times [seconds]);
   a smoke run makes one pass, or two when traced.  The calibration is
   refreshed between passes, outside their timing, and once more at the
   end. *)
let measure ?(min_passes = 1) ctx pass =
  let start = now () in
  let rec go i =
    Calib.refresh ctx.calib;
    pass i;
    let n = i + 1 and elapsed = now () -. start in
    let more =
      if ctx.smoke then n < if ctx.trace = None then 1 else 2
      else (elapsed < ctx.seconds || n < min_passes) && elapsed < 3.0 *. ctx.seconds
    in
    if more then go n
  in
  go 0;
  Calib.refresh ~every:0.0 ctx.calib

(* A traced run alternates untraced and traced passes, so the tracing
   overhead is measured on the same machine state. *)
let traced_pass ctx i = Option.is_some ctx.trace && i mod 2 = 1

let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- files ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counter = ref 0

let fresh_dir ctx prefix =
  incr counter;
  let d = Filename.concat ctx.work (Printf.sprintf "%s-%d" prefix !counter) in
  mkdir_p d;
  d

(* An empty artifact store, installed as the process's store.  Stores
   stay on disk until the run ends: deleting files while measuring
   would put the filesystem's work into the next pass. *)
let fresh_store ctx =
  let dir = fresh_dir ctx "store" in
  match Store.open_dir dir with
  | Ok s -> Store.install s
  | Error m -> failwith ("cannot open store " ^ dir ^ ": " ^ m)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let golden name = read_file (Filename.concat "ci/goldens" name)

(* ---- store and memory accounting ---- *)

let store_delta acc (b : Store.stats) (a : Store.stats) =
  let d f = float_of_int (f a - f b) in
  add acc "runtime.store.hits" (d (fun s -> s.Store.st_hits));
  add acc "runtime.store.misses" (d (fun s -> s.Store.st_misses));
  add acc "runtime.store.bad" (d (fun s -> s.Store.st_bad));
  add acc "runtime.store.writes" (d (fun s -> s.Store.st_writes));
  add acc "runtime.store.read_ms" (1000.0 *. (a.Store.st_read_s -. b.Store.st_read_s));
  add acc "runtime.store.write_ms" (1000.0 *. (a.Store.st_write_s -. b.Store.st_write_s))

(* VmHWM, the peak resident set, of a process ("self" or a pid). *)
let vm_hwm_kb proc =
  match read_file (Printf.sprintf "/proc/%s/status" proc) with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> int_of_string_opt kb
             | [] -> None)
           | _ -> None)
  | exception Sys_error _ -> None
