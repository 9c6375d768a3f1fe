(** C export (the embedded-C-compiler corner of the Nimble flow,
    Figure 5.2): emit a translation unit for a program, or a standalone
    runnable C file that loads a workload and prints every output array
    element (integers decimal, doubles hex) for diffing against the
    interpreter.

    Integers emit as [int64_t] (the interpreter's ints are 63-bit):
    kernels that keep values masked are bit-identical; overflow past 62
    bits may differ. *)

val standalone : Stmt.program -> workload:Interp.workload -> string
val write_standalone : Stmt.program -> workload:Interp.workload -> path:string -> unit
