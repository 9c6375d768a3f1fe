(** Deterministic fault injection for the compilation pipeline.

    A fault {e plan} is a comma-separated list of specs:

    {v site[=label]:kind:nth v}

    The [nth] (1-based) matching hit of the named injection site fires
    the fault, exactly once; counting is per spec and purely
    counter-based — no seeds, no randomness — so a plan replays exactly
    on a sequential run.  A spec may pin a [label]: it then matches
    only hits whose own label equals it, or hits made under a scope
    carrying it (the sweep engine runs each (benchmark, version) cell
    in its own scope, e.g. ["Skipjack-mem/squash(4)"], through
    {!Ctx.in_scope}), which makes a fault land on one specific cell at
    any pool size.

    Sites wired through the stack: [parallel.task] (label: input
    index), [pass.run] (label: pass name), [rewrite.apply] (label:
    rewrite name), [interp.run] (no label: pin it with a cell scope),
    [store.read] and [store.write] (label: artifact kind — [schedule],
    [plan-row]).  The store sites are absorbed
    inside {!Uas_runtime.Store}: a read fault classifies the lookup as
    [Bad] (a miss plus a [Cu] incident, then recomputation), a write
    [raise]/[stall] fails the save, and a write [corrupt] poisons the
    entry on disk under a truthful header so the {e next} read detects
    the checksum mismatch — proving a poisoned cache can never change
    an answer.

    Kinds: [raise] throws {!Injected} at the site; [stall] spins
    cooperatively until a pool watchdog cancels the task (or a cap
    expires) — at the interpreter site it instead exhausts the fuel
    budget, surfacing as [Out_of_fuel]; [corrupt] makes the site
    return a deterministically-perturbed result (sites that have
    nothing to corrupt treat it as [raise]).

    A plan is a value: the CLIs parse the [UAS_FAULT] environment
    variable and the [--fault] flag in [Session.start] and carry the
    result in their run context ({!Ctx.t}); each parse has its own hit
    counters. *)

(** The environment variable [Session.start] reads: ["UAS_FAULT"]. *)
val env_var : string

type kind = Raise | Stall | Corrupt

(** The exception a fired [raise]/[stall] spec throws.  The pass
    runner's diagnostics layer renders it, so an injected fault
    surfaces as a structured [Diag] — never a backtrace. *)
exception Injected of { site : string; kind : kind }

(** A parsed plan with its hit counters. *)
type t

(** The empty plan: no site ever fires. *)
val none : t

(** Parse a plan with fresh hit counters.  [Error] describes the first
    malformed spec. *)
val parse : string -> (t, string) result

(** The plan text as parsed; [""] for {!none}. *)
val to_string : t -> string

(** {2 Cancellation (domain-local)} *)

(** Install (or clear) the calling domain's cancellation flag — set by
    the {!Parallel} pool around each task so its watchdog can cancel a
    cooperative {!stall}. *)
val set_cancel : bool Atomic.t option -> unit

(** Has the pool watchdog cancelled the calling domain's current
    task? *)
val cancel_requested : unit -> bool

(** {2 Sites} *)

(** [hit t ~scope ?label site] advances every spec of [t] matching the
    site, its label or one of the [scope] labels, and returns the kind
    to inject when one fired.  [None] means proceed normally (the
    overwhelmingly common case: one list check). *)
val hit : t -> scope:string list -> ?label:string -> string -> kind option

(** [raise_if_armed] is {!hit} for sites that cannot act on [Corrupt]:
    [raise]/[corrupt] throw {!Injected}, [stall] spins via {!stall}
    first. *)
val raise_if_armed : t -> scope:string list -> ?label:string -> string -> unit

(** Spin until {!cancel_requested} or the stall cap (default 1s)
    expires, then raise {!Injected} with kind [Stall].  Sleeps in 2ms
    slices, so a watchdog-cancelled stall ends promptly. *)
val stall : site:string -> unit -> 'a

(** For sites that degrade instead of raising: {!stall} first when
    [kind] is [Stall], then the message {!Injected} renders to. *)
val absorb : site:string -> kind -> string

(** Override the unsupervised-stall give-up cap, in seconds (tests). *)
val set_stall_cap : float -> unit
