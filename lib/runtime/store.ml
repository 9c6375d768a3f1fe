(* The persistent content-addressed artifact store behind UAS_CACHE.

   Design constraints, in order:

   1. Never a wrong answer.  Every entry carries its own header (format
      version, kind, key, MD5 of the payload, payload length) and read
      re-validates all of it; anything off — torn write, flipped bits,
      a different format version, an injected fault — classifies as
      [Bad], which callers must treat as a miss plus an incident.  The
      payload (a Record field list) carries no version of its own:
      callers hash the format version and the cost-model version into
      the key, so stale entries can't even be looked up.

   2. Never a torn entry.  Writes stage into <dir>/tmp/ under a name
      unique per (pid, domain, counter) and publish with Sys.rename —
      atomic on POSIX within one filesystem — so concurrent writers
      and killed runs leave either the old entry, the new entry, or
      nothing.

   3. Never an escaped exception.  All filesystem trouble and both
      fault-injection sites (store.read / store.write, label = artifact
      kind) are absorbed here: reads degrade to [Bad], writes to
      [Error].  The degradation policy (PR 5) then keeps the trouble in
      the cell that hit it.

   4. Bounded size.  An atomic running total (seeded by a scan at
      open) triggers a mutex-guarded eviction sweep when a write pushes
      the store past its budget; the sweep deletes oldest-mtime objects
      until the store is back under 7/8 of the budget.

   5. Multi-process safe.  A daemon and a concurrent CLI may share one
      store directory, so eviction and write-publish are serialized
      across processes by an advisory fcntl lock on <dir>/lock: the
      publisher holds it (blocking, briefly) around rename+accounting,
      the sweeper tries it non-blocking and — losing the race — skips
      the sweep with an incident counter instead of racing a foreign
      eviction into a half-removed entry.  fcntl locks are per-process,
      so all lockf calls additionally run under one in-process mutex
      (one thread's unlock must not drop a lock another thread of this
      process still relies on). *)

let env_var = "UAS_CACHE"
let max_bytes_env_var = "UAS_CACHE_MAX_BYTES"
let format_version = 4
let default_max_bytes = 256 * 1024 * 1024

type t = {
  s_dir : string;
  s_max_bytes : int;
  total_bytes : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  bad : int Atomic.t;
  writes : int Atomic.t;
  evicted : int Atomic.t;
  evict_skipped : int Atomic.t;
      (** sweeps abandoned because another process held the store lock *)
  read_us : int Atomic.t;  (** cumulative read latency, microseconds *)
  write_us : int Atomic.t;
  evict_lock : Mutex.t;
  lock_fd : Unix.file_descr option;  (** <dir>/lock; [None] degrades *)
  lockf_mutex : Mutex.t;  (** serializes every lockf on [lock_fd] *)
  tmp_counter : int Atomic.t;
}

let dir t = t.s_dir
let lock_file t = Filename.concat t.s_dir "lock"
let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* ---- paths ---- *)

let objects_dir t = Filename.concat t.s_dir "objects"
let tmp_dir t = Filename.concat t.s_dir "tmp"

let object_path t ~kind ~key =
  (* two-level fan-out on the key prefix keeps directories small *)
  let prefix = if String.length key >= 2 then String.sub key 0 2 else key in
  Filename.concat
    (Filename.concat (objects_dir t) kind)
    (Filename.concat prefix key)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if String.length parent < String.length path then mkdir_p parent;
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- opening ---- *)

(* walk a directory tree, calling [f path size mtime] on each regular
   file; missing directories are fine (concurrent eviction) *)
let rec walk_files dirpath f =
  let entries = try Sys.readdir dirpath with Sys_error _ -> [||] in
  Array.iter
    (fun name ->
      let path = Filename.concat dirpath name in
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
        f path st_size st_mtime
      | { Unix.st_kind = Unix.S_DIR; _ } -> walk_files path f
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    entries

let open_dir ?max_bytes dir =
  let budget =
    match max_bytes with
    | Some n -> Ok n
    | None -> (
      match Sys.getenv_opt max_bytes_env_var with
      | None -> Ok default_max_bytes
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> Ok n
        | Some _ | None ->
          Error
            (Printf.sprintf "%s=%S: expected a positive byte count"
               max_bytes_env_var s)))
  in
  match budget with
  | Error _ as e -> e
  | Ok s_max_bytes -> (
    match
      mkdir_p dir;
      mkdir_p (Filename.concat dir "objects");
      mkdir_p (Filename.concat dir "tmp")
    with
    | () ->
      let initial = ref 0 in
      walk_files (Filename.concat dir "objects") (fun _ size _ ->
          initial := !initial + size);
      let lock_fd =
        (* a store that cannot open its lock file still works — it just
           skips every eviction sweep (counted) instead of risking a
           cross-process race *)
        try
          Some
            (Unix.openfile (Filename.concat dir "lock")
               [ Unix.O_CREAT; Unix.O_RDWR ] 0o644)
        with Unix.Unix_error _ | Sys_error _ -> None
      in
      Ok
        { s_dir = dir;
          s_max_bytes;
          total_bytes = Atomic.make !initial;
          hits = Atomic.make 0;
          misses = Atomic.make 0;
          bad = Atomic.make 0;
          writes = Atomic.make 0;
          evicted = Atomic.make 0;
          evict_skipped = Atomic.make 0;
          read_us = Atomic.make 0;
          write_us = Atomic.make 0;
          evict_lock = Mutex.create ();
          lock_fd;
          lockf_mutex = Mutex.create ();
          tmp_counter = Atomic.make 0 }
    | exception Unix.Unix_error (e, _, p) ->
      Error
        (Printf.sprintf "cannot open cache directory %s: %s: %s" dir p
           (Unix.error_message e))
    | exception Sys_error m ->
      Error (Printf.sprintf "cannot open cache directory %s: %s" dir m))

(* ---- entry encoding ---- *)

let encode ~kind ~key payload =
  Printf.sprintf "uas-store %d\nkind %s\nkey %s\nmd5 %s\nlen %d\n--\n%s"
    format_version kind key
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

(* flip one payload bit: used by the corrupt fault kind (on read, to
   model bit rot; on write, to poison the entry under a truthful
   header) *)
let flip_last_byte s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 1));
    Bytes.to_string b
  end

let decode ~kind ~key contents : (string, string) result =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  (* header = 5 lines + a "--" separator, then the raw payload *)
  let rec split_lines contents pos acc = function
    | 0 -> Some (List.rev acc, pos)
    | n -> (
      match String.index_from_opt contents pos '\n' with
      | None -> None
      | Some i ->
        split_lines contents (i + 1)
          (String.sub contents pos (i - pos) :: acc)
          (n - 1))
  in
  match split_lines contents 0 [] 6 with
  | None -> fail "truncated header"
  | Some (lines, payload_pos) -> (
    let payload =
      String.sub contents payload_pos (String.length contents - payload_pos)
    in
    match lines with
    | [ magic; kind_l; key_l; md5_l; len_l; "--" ] ->
      if not (String.equal magic (Printf.sprintf "uas-store %d" format_version))
      then fail "format version mismatch (%s)" magic
      else if not (String.equal kind_l ("kind " ^ kind)) then
        fail "kind mismatch (%s)" kind_l
      else if not (String.equal key_l ("key " ^ key)) then
        fail "key mismatch"
      else if
        not (String.equal len_l ("len " ^ string_of_int (String.length payload)))
      then fail "length mismatch (%s, payload %d)" len_l (String.length payload)
      else if
        not
          (String.equal md5_l
             ("md5 " ^ Digest.to_hex (Digest.string payload)))
      then fail "checksum mismatch"
      else Ok payload
    | _ -> fail "malformed header")

(* ---- read ---- *)

type read_result = Hit of string | Miss | Bad of string

let read ?(faults = Fault.none) ?(scope = []) t ~kind ~key =
  let t0 = Unix.gettimeofday () in
  let fire = Fault.hit faults ~scope ~label:kind "store.read" in
  let result =
    match fire with
    | Some ((Fault.Raise | Fault.Stall) as k) ->
      Bad (Fault.absorb ~site:"store.read" k)
    | (None | Some Fault.Corrupt) as fire -> (
      let path = object_path t ~kind ~key in
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | contents -> (
        let contents =
          match fire with
          | Some Fault.Corrupt -> flip_last_byte contents
          | _ -> contents
        in
        match decode ~kind ~key contents with
        | Ok payload -> Hit payload
        | Error m -> Bad m)
      | exception Sys_error _ -> Miss
      | exception End_of_file -> Bad "truncated entry")
  in
  (match result with
  | Hit _ -> Atomic.incr t.hits
  | Miss -> Atomic.incr t.misses
  | Bad _ -> Atomic.incr t.bad);
  let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  ignore (Atomic.fetch_and_add t.read_us us);
  result

(* ---- cross-process store lock ---- *)

(* [with_file_lock t ~block f] runs [f] under the advisory lock on
   <dir>/lock.  [block = true] (publish path) waits for the lock and,
   with no usable lock fd, degrades to running [f] unlocked — a write
   must never be lost to lock trouble.  [block = false] (eviction
   path) returns [None] instead of waiting: the caller skips the sweep
   and counts the incident.  fcntl locks are per-process, so every
   lockf call is serialized by [lockf_mutex] — otherwise one thread's
   unlock would drop a lock a sibling thread still holds. *)
let with_file_lock t ~block f =
  match t.lock_fd with
  | None -> if block then Some (f ()) else None
  | Some fd ->
    Mutex.lock t.lockf_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lockf_mutex)
      (fun () ->
        let cmd = if block then Unix.F_LOCK else Unix.F_TLOCK in
        match Unix.lockf fd cmd 0 with
        | () ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.lockf fd Unix.F_ULOCK 0
              with Unix.Unix_error _ -> ())
            (fun () -> Some (f ()))
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _)
          when not block ->
          None
        | exception Unix.Unix_error _ ->
          (* lock machinery itself broken: publishes proceed unlocked,
             sweeps skip — same degradation as a missing lock fd *)
          if block then Some (f ()) else None)

(* ---- eviction ---- *)

let sweep_locked t =
  (* re-walk under the lock: the atomic total is only a trigger; the
     sweep works from ground truth *)
  let files = ref [] in
  walk_files (objects_dir t) (fun path size mtime ->
      files := (path, size, mtime) :: !files);
  let files =
    List.sort
      (fun (p1, _, m1) (p2, _, m2) ->
        match Float.compare m1 m2 with
        | 0 -> String.compare p1 p2 (* deterministic ties *)
        | c -> c)
      !files
  in
  let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 files in
  let low_water = t.s_max_bytes / 8 * 7 in
  let remaining = ref total in
  List.iter
    (fun (path, size, _) ->
      if !remaining > low_water then begin
        (try Sys.remove path with Sys_error _ -> ());
        remaining := !remaining - size;
        Atomic.incr t.evicted
      end)
    files;
  Atomic.set t.total_bytes !remaining

let evict_sweep t =
  Mutex.lock t.evict_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.evict_lock)
    (fun () ->
      match with_file_lock t ~block:false (fun () -> sweep_locked t) with
      | Some () -> ()
      | None ->
        (* another process holds the store lock (its own sweep or
           publish in flight): racing it could tear an entry out from
           under a reader, so skip this sweep — the next over-budget
           write tries again — and record the incident *)
        Atomic.incr t.evict_skipped)

(* ---- write ---- *)

let write ?(faults = Fault.none) ?(scope = []) t ~kind ~key payload =
  let t0 = Unix.gettimeofday () in
  let fire = Fault.hit faults ~scope ~label:kind "store.write" in
  let result =
    match fire with
    | Some ((Fault.Raise | Fault.Stall) as k) ->
      Error (Fault.absorb ~site:"store.write" k)
    | (None | Some Fault.Corrupt) as fire -> (
      let entry = encode ~kind ~key payload in
      let entry =
        (* poison the payload under a truthful header: the entry lands
           on disk, and the next read detects the checksum mismatch *)
        match fire with
        | Some Fault.Corrupt -> flip_last_byte entry
        | _ -> entry
      in
      let dst = object_path t ~kind ~key in
      let tmp =
        Filename.concat (tmp_dir t)
          (Printf.sprintf "w-%d-%d-%d" (Unix.getpid ())
             (Domain.self () :> int)
             (Atomic.fetch_and_add t.tmp_counter 1))
      in
      match
        mkdir_p (Filename.dirname dst);
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc entry);
        (* publish under the cross-process lock so a foreign eviction
           sweep never interleaves with the rename *)
        ignore (with_file_lock t ~block:true (fun () -> Sys.rename tmp dst))
      with
      | () ->
        Atomic.incr t.writes;
        let total =
          Atomic.fetch_and_add t.total_bytes (String.length entry)
          + String.length entry
        in
        if total > t.s_max_bytes then evict_sweep t;
        Ok ()
      | exception Sys_error m ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error m
      | exception Unix.Unix_error (e, _, p) ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error (Printf.sprintf "%s: %s" p (Unix.error_message e)))
  in
  let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  ignore (Atomic.fetch_and_add t.write_us us);
  result

(* ---- statistics ---- *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_bad : int;
  st_writes : int;
  st_evicted : int;
  st_evict_skipped : int;
  st_read_s : float;
  st_write_s : float;
}

let stats t =
  { st_hits = Atomic.get t.hits;
    st_misses = Atomic.get t.misses;
    st_bad = Atomic.get t.bad;
    st_writes = Atomic.get t.writes;
    st_evicted = Atomic.get t.evicted;
    st_evict_skipped = Atomic.get t.evict_skipped;
    st_read_s = float_of_int (Atomic.get t.read_us) /. 1e6;
    st_write_s = float_of_int (Atomic.get t.write_us) /. 1e6 }

(* Run one sweep through the same cross-process trylock as the
   over-budget write path: a maintenance entry point, and the
   deterministic way to exercise the lock-held degradation. *)
let evict_now t = evict_sweep t

(* ---- restart verification ---- *)

let scan t =
  let count = ref 0 and bytes = ref 0 in
  walk_files (objects_dir t) (fun _ size _ ->
      incr count;
      bytes := !bytes + size);
  (!count, !bytes)

let hit_rate st =
  let lookups = st.st_hits + st.st_misses + st.st_bad in
  if lookups = 0 then 0.0
  else float_of_int st.st_hits /. float_of_int lookups

let stats_json t =
  let st = stats t in
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"bad\":%d,\"writes\":%d,\"evicted\":%d,\"evict_skipped\":%d,\"hit_rate\":%.4f,\"read_s\":%.6f,\"write_s\":%.6f}"
    st.st_hits st.st_misses st.st_bad st.st_writes st.st_evicted
    st.st_evict_skipped (hit_rate st) st.st_read_s st.st_write_s

let pp_stats ppf t =
  let st = stats t in
  let lookups = st.st_hits + st.st_misses + st.st_bad in
  let mean_us total n =
    if n = 0 then 0.0 else total *. 1e6 /. float_of_int n
  in
  Format.fprintf ppf
    "artifact store: %d/%d hits (%.1f%%), %d bad, %d writes, %d evicted; \
     mean read %.0f us, mean write %.0f us"
    st.st_hits lookups
    (100.0 *. hit_rate st)
    st.st_bad st.st_writes st.st_evicted
    (mean_us st.st_read_s lookups)
    (mean_us st.st_write_s st.st_writes);
  if st.st_evict_skipped > 0 then
    Format.fprintf ppf ", %d eviction sweep(s) skipped (store lock held)"
      st.st_evict_skipped

(* ---- the installed store ---- *)

(* the process store of callers that pass no run context; read only by
   [Ctx.default] *)
let installed_ref : t option ref = ref None
let install s = installed_ref := Some s
let installed () = !installed_ref
let uninstall () = installed_ref := None
