(** The one field format of what the artifact store keeps (kernel
    schedules, planner rows) and what the daemon receives (request
    bodies): one [key=value] line per field, the value passed through
    [String.escaped], so any bytes survive on one line and a record can
    nest as the value of another's field.

    Decoding never raises: input from outside the program (a store
    file, a socket) is at worst an [Error] naming the offending line,
    which callers turn into a typed miss or a one-line error. *)

(** Fields in order; a key may repeat.  Keys are non-empty and hold
    neither ['='] nor a newline. *)
type t = (string * string) list

(** One [key=value] line per field, each newline-terminated. *)
val encode : t -> string

(** The fields of {!encode}'s output, blank lines skipped.  [Error line]
    names the first line without ['='] or with a malformed escape. *)
val decode : string -> (t, string) result

(** The first value under the key. *)
val find : string -> t -> string option

(** Every value under the key, in order. *)
val all : string -> t -> string list

(** The first value under the key, as an integer. *)
val int : string -> t -> int option
