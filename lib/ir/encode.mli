(** The program identity the artifact store and the planner key on:
    the MD5 of a compact structural encoding of the program.

    The encoding covers every field {!Pp} prints (name, scalars with
    their types, arrays with kind, type and size, ROM data, loop
    steps) and is injective on them, except that [-0.] and [0.] encode
    alike, as they print alike.  Equal digests therefore imply equal
    {!Pp.program_to_string} texts.  The converse fails only where the
    text merges distinct trees, e.g. [Int (-3)] and
    [Unop (Neg, Int 3)] both print [-3], and "%g" prints nearby floats
    alike. *)

val digest : Stmt.program -> Digest.t
