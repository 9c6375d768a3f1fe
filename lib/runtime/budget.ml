(* One validator for the supervision budget values, behind the
   --task-timeout / --request-budget / --drain-timeout
   converters of Uas_cli.Session and the daemon's per-request budget=
   key, so a nonsensical value (0, negative, NaN, absurdly large) is
   rejected with the same diagnostic everywhere, and the diagnostic
   always names the valid range — the UAS_JOBS / UAS_FAULT
   precedent. *)

let timeout_max_s = 86_400.0

let timeout_range = Printf.sprintf "finite seconds in (0, %.0f]" timeout_max_s

let timeout_of_string ~flag s =
  match float_of_string_opt (String.trim s) with
  | None ->
    Error
      (Printf.sprintf "%s %S is not a number; expected %s" flag s
         timeout_range)
  | Some t when not (Float.is_finite t) ->
    Error
      (Printf.sprintf "%s %s is not a finite duration; expected %s" flag
         (string_of_float t) timeout_range)
  | Some t when t <= 0.0 || t > timeout_max_s ->
    Error
      (Printf.sprintf "%s %g is out of range; expected %s" flag t
         timeout_range)
  | Some t -> Ok t
