(* nimbled is an executable: it exports nothing. *)
