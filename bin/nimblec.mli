(* nimblec is an executable: it exports nothing. *)
