(** Graphviz export of DFGs (Figure 4.1/4.2-style diagrams): operators
    as boxes, register sources as ellipses, loop-carried backedges
    dashed and labelled with their distance. *)

(** Render in dot syntax. *)
val to_dot : ?name:string -> Graph.t -> string
