(** Structured compiler diagnostics.

    Every pass failure on a user-facing path — an illegal squash/jam
    factor, a missing loop nest, dynamic kernel bounds — is reported as
    one of these instead of a raw exception: the sweep engine records
    them per version ("skipped: squash(16) — ..."), and nimblec prints
    them and exits non-zero instead of dumping an OCaml backtrace.
    Every diagnostic is an error. *)

type t = {
  d_pass : string;  (** name of the pass that reported it *)
  d_loop : string option;  (** the loop it points at, by index variable *)
  d_message : string;
}

(** ["error[squash] at loop i: <message>"]. *)
val pp : t Fmt.t

val to_string : t -> string

(** Build a diagnostic with a format string, e.g.
    [errorf ~pass:"squash" ~loop:"i" "illegal at factor %d" ds]. *)
val errorf :
  pass:string -> ?loop:string -> ('a, Format.formatter, unit, t) format4 -> 'a

(** Translate the exceptions shared across layers — an injected fault,
    [Ir_error], [Not_found] (loop-nest lookup), [Failure],
    [Invalid_argument] — into a diagnostic attributed to [pass]; [None]
    for anything unrecognized (a genuine bug, which should keep its
    backtrace). *)
val of_exn : pass:string -> ?loop:string -> exn -> t option
