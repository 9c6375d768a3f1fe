(** Shared validation of the supervision budget values.

    [--task-timeout] and the daemon budgets
    ([--request-budget], [--drain-timeout]) are parsed by the
    converters of [Uas_cli.Session], and the daemon's per-request
    [budget=] key by its request parser, all through this one module:
    a nonsensical value (0, negative, NaN, infinite, absurdly large) is
    rejected with the same structured diagnostic everywhere, and the
    diagnostic always names the valid range, matching the
    [UAS_JOBS]/[UAS_FAULT] precedent.

    The validator takes the flag name being validated ([~flag]) so the
    message points at the exact spelling the user typed
    ([--task-timeout] vs [--request-budget] vs [budget]). *)

(** Human rendering of the valid range (for help strings). *)
val timeout_range : string

(** Accepts finite [t] with [0 < t <= timeout_max_s]; a non-numeric
    string is its own diagnostic. *)
val timeout_of_string : flag:string -> string -> (float, string) result
