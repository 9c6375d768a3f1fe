(** If-conversion (§4.2): conditionals whose arms contain only scalar
    assignments become straight-line [Select] code, making inner loops
    the single basic block squash/jam require.  Note the hardware-mux
    semantics: both arms evaluate. *)

open Uas_ir

(** Convert every convertible conditional, bottom-up; unconvertible
    ones (stores/loops in arms) are left in place. *)
val apply : Stmt.program -> Stmt.program
