(** Persistent content-addressed artifact store.

    Expensive compilation artifacts (kernel schedules, planner rows)
    are stored as {!Record} field lists, keyed by a content hash of
    what they are computed from: the program's structural digest, tool
    parameters, cost-model version and the store format version.  Same
    key, same bytes — so a warm cache run is byte-identical to a cold
    one, and a stale or corrupted entry can only ever be a {e miss}
    (plus a [Cu] incident), never a wrong answer.

    On-disk layout under the store directory:

    {v
    <dir>/objects/<kind>/<k0k1>/<key>   one artifact per file
    <dir>/tmp/                          write staging (rename target)
    v}

    Each object file carries a small header (format version, kind, key,
    payload checksum, payload length) followed by the payload; {!read}
    re-validates all of it and classifies any mismatch as {!Bad}.
    Writes go to a unique temp file first and are published with
    [Sys.rename], so concurrent writers and crashed runs never leave a
    torn entry.  When the store grows past its byte budget an eviction
    sweep deletes oldest-modified objects first.

    Multi-process use (a daemon plus concurrent CLIs on one directory)
    is serialized by an advisory fcntl lock on [<dir>/lock]: publishes
    hold it briefly (blocking) around the rename, eviction tries it
    non-blocking and — losing the race to another process — degrades to
    skipping the sweep with an incident ({!stats.st_evict_skipped}),
    never an error and never a half-removed entry.

    Fault injection: the [store.read] and [store.write] sites (label =
    artifact kind) of the caller's plan are handled {e inside} this
    module — an injected read fault surfaces as {!Bad}, an injected
    write fault as [Error], and nothing ever escapes as an exception.
    A run reaches its store through its context ({!Ctx.t}). *)

(** The environment variable naming the store directory: ["UAS_CACHE"].
    CLIs consult it when no [--cache] flag is given. *)
val env_var : string

(** The one format version of the store: of its entry header and of
    every payload's {!Record} fields.  Part of every cache key and
    every header, so a bump invalidates the whole store without
    deleting it: old entries become clean misses. *)
val format_version : int

type t

(** [open_dir ?max_bytes dir] creates [dir] (and its [objects/] and
    [tmp/] subdirectories) if needed and scans the existing objects to
    seed the size accounting.  [max_bytes] defaults to
    [UAS_CACHE_MAX_BYTES] or 256 MiB.  [Error] renders any filesystem
    or malformed-budget problem as one line. *)
val open_dir : ?max_bytes:int -> string -> (t, string) result

(** The store directory. *)
val dir : t -> string

(** The advisory lock file serializing eviction and publish across
    processes: [<dir>/lock].  Exposed so tests (and external tooling)
    can contend for it. *)
val lock_file : t -> string

(** [key parts] is the content hash (MD5, hex) of the parts joined with
    a NUL separator — the one key-construction function, so every
    caller hashes provenance the same way. *)
val key : string list -> string

type read_result =
  | Hit of string  (** the validated payload *)
  | Miss  (** no entry under this key *)
  | Bad of string
      (** an entry exists but failed validation (torn write, flipped
          bits, header/kind/key mismatch, injected fault); callers must
          treat it as a miss and record an incident *)

(** [faults]/[scope] (default: none) drive the [store.read] site. *)
val read :
  ?faults:Fault.t -> ?scope:string list -> t -> kind:string -> key:string ->
  read_result

(** [write t ~kind ~key payload] publishes the entry atomically
    (write-then-rename) and runs the eviction sweep when over budget.
    [Error] (filesystem trouble or an injected fault at the
    [store.write] site of [faults]) means the entry was not (correctly)
    published; callers degrade to an incident. *)
val write :
  ?faults:Fault.t -> ?scope:string list -> t -> kind:string -> key:string ->
  string -> (unit, string) result

(** {2 Statistics}

    Always on (plain atomic counters, no instrumentation gate) so the
    CLIs can report hit rates and per-request latency even on clean
    runs. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_bad : int;  (** entries that failed validation *)
  st_writes : int;
  st_evicted : int;
  st_evict_skipped : int;
      (** eviction sweeps skipped because another process held the
          store lock — each is an incident, never an error *)
  st_read_s : float;  (** cumulative wall-clock spent in {!read} *)
  st_write_s : float;  (** cumulative wall-clock spent in {!write} *)
}

val stats : t -> stats

(** Walk the object tree and return [(entries, bytes)] — the restart
    verification pass [nimbled] runs after reopening a store. *)
val scan : t -> int * int

(** Run one eviction sweep right now, through the same cross-process
    trylock as the over-budget write path: when another process holds
    the store lock the sweep is skipped with an incident
    ([st_evict_skipped]), never an error. *)
val evict_now : t -> unit

(** Hits over all lookups ([hits + misses + bad]); [0.] when none. *)
val hit_rate : stats -> float

(** The stats as a JSON object (trajectory ["store"] key; the
    [evict_skipped] field arrived with schema v7). *)
val stats_json : t -> string

(** One human line for stderr: hit rate, lookups, mean latencies. *)
val pp_stats : Format.formatter -> t -> unit

(** {2 The installed store}

    The store of callers that pass no run context (the [bench/perf]
    harness), read by {!Ctx.default} at call time. *)

val install : t -> unit
val installed : unit -> t option

(** Remove the installed store. *)
val uninstall : unit -> unit
