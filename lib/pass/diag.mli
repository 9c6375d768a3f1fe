(** Structured compiler diagnostics.

    Every pass failure on a user-facing path — an illegal squash/jam
    factor, a missing loop nest, dynamic kernel bounds — is reported as
    one of these instead of a raw exception: the sweep engine records
    them per version ("skipped: squash(16) — ..."), and nimblec prints
    them and exits non-zero instead of dumping an OCaml backtrace. *)

type severity = Error | Warning | Note

(** Where in the program the diagnostic points: the loop (by index
    variable) and/or a pretty-printed statement. *)
type loc = { loc_loop : string option; loc_stmt : string option }

type t = {
  d_severity : severity;
  d_pass : string;  (** name of the pass that reported it *)
  d_loc : loc;
  d_message : string;
}

val pp_severity : severity Fmt.t

(** ["error[squash] at loop i: <message>"]. *)
val pp : t Fmt.t

val to_string : t -> string

(** Build a diagnostic with a format string, e.g.
    [errorf ~pass:"squash" ~loop:"i" "illegal at factor %d" ds]. *)
val errorf :
  pass:string ->
  ?loop:string ->
  ?stmt:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

(** A structured diagnostic as an exception, for callers that raise
    (bench/main.exe's report helper). *)
exception Failed of t

(** [fail d] raises {!Failed}. *)
val fail : t -> 'a

(** Translate the exceptions shared across layers — {!Failed}, an
    injected fault, [Ir_error], [Not_found] (loop-nest lookup),
    [Failure], [Invalid_argument] — into a diagnostic
    attributed to [pass]; [None] for anything unrecognized (a genuine
    bug, which should keep its backtrace). *)
val of_exn : pass:string -> ?loop:string -> exn -> t option
