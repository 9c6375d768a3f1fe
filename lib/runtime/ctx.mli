(** The run context: what a compilation run reads besides its inputs.
    One immutable value per run: [Session.start]/[Session.open_store]
    build it, the drivers pass it down, a compilation unit keeps the
    one it was made with, and [Pass.fan_out] gives each cell its own
    scope with {!in_scope}. *)

type t = {
  store : Store.t option;  (** the artifact store, [--cache] *)
  cache_verify : bool;  (** [--cache-verify]: recompute and compare *)
  faults : Fault.t;  (** the fault plan, [--fault] or [UAS_FAULT] *)
  trace : Instrument.t;  (** the span and counter sink, [--timings] *)
  scope : string list;
      (** fault scopes, innermost first: a spec pinned to one of these
          labels fires on the hits made under it *)
}

(** No faults, no sink, no scope, no verify mode, and the store
    {!Store.install} set, read at call time. *)
val default : unit -> t

(** [in_scope t label] is [t] with [label] pushed on its scopes. *)
val in_scope : t -> string -> t
