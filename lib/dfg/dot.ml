(* Graphviz export of DFGs, for rendering Figure 4.1/4.2-style
   diagrams: operator nodes as boxes, register sources as ellipses,
   loop-carried backedges dashed with their distance. *)

open Uas_ir

let node_shape (k : Opinfo.op_kind) =
  match k with
  | Opinfo.Op_move -> "ellipse"
  | Opinfo.Op_const -> "plaintext"
  | Opinfo.Op_load | Opinfo.Op_store -> "box3d"
  | Opinfo.Op_rom -> "cylinder"
  | Opinfo.Op_binop _ | Opinfo.Op_unop _ | Opinfo.Op_select -> "box"

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(** Render the graph in Graphviz dot syntax. *)
let to_dot ?(name = "dfg") (g : Graph.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape name));
  Buffer.add_string buf "  rankdir=TB;\n  node [fontname=\"monospace\"];\n";
  Array.iter
    (fun (n : Graph.node) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\" shape=%s];\n" n.Graph.id
           (escape n.Graph.label)
           (node_shape n.Graph.kind)))
    g.Graph.nodes;
  List.iter
    (fun (e : Graph.edge) ->
      if e.Graph.e_distance = 0 then
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d;\n" e.Graph.e_src e.Graph.e_dst)
      else
        Buffer.add_string buf
          (Printf.sprintf
             "  n%d -> n%d [style=dashed constraint=false label=\"+%d\"];\n"
             e.Graph.e_src e.Graph.e_dst e.Graph.e_distance))
    g.Graph.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
