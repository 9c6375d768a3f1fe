(* DFG construction from a straight-line inner-loop body (§4.3, §5.3).

   The body is converted to SSA, then every operation becomes a node:
   - scalar flow inside one iteration: distance-0 edges;
   - loop-carried scalars (a use of the live-in version of a variable
     that the body also defines): a distance-1 edge from the defining
     node — the paper's backedges;
   - loop-invariant live-ins: register-source nodes ([Op_move]), the
     "registers at the top of the graph";
   - memory ordering: edges between accesses to the same array,
     disambiguated by each access's affine subscript form over the
     inner index (Dependence.form_of, computed once per access) so that
     accesses to provably different elements are independent. *)

open Uas_ir
module Ssa = Uas_analysis.Ssa
module Dependence = Uas_analysis.Dependence
module Smap = Ssa.Smap

type access_info = {
  acc_node : int;
  acc_write : bool;
  acc_form : Dependence.form option;
      (* the subscript over the inner index; [None] when unknown *)
}

(* --- memory disambiguation --- *)

(* The subscript's form over the inner index.  The expressions may be
   SSA-renamed (j -> j#0): names are classified and compared by base
   name, so the loop index stays recognizable and body-defined values
   stay iteration-variant.  A symbol whose coefficient is not 1 makes
   the form unknown — the DFG's conservative rule, which the goldens
   pin (docs/COST_MODEL.md). *)
let subscript_form ~inner_index ~body_defs e =
  let classify v =
    let base = Ssa.base_name v in
    if Some base = inner_index then Dependence.Index 0
    else if Stmt.Sset.mem base body_defs || Stmt.Sset.mem v body_defs then
      Dependence.Variant
    else Dependence.Sym base
  in
  match Dependence.form_of ~levels:1 ~classify e with
  | Some f when List.for_all (fun (_, c) -> c = 1) f.Dependence.syms -> Some f
  | _ -> None

(* May accesses with forms [x] (earlier) and [y] (later) touch the same
   element in the same iteration? *)
let may_alias_intra (x : Dependence.form option) (y : Dependence.form option) =
  match (x, y) with
  | Some x, Some y when x.syms = y.syms ->
    (* c_x*j + k_x = c_y*j + k_y for the same j *)
    let cx = x.coeffs.(0) and cy = y.coeffs.(0) in
    if cx = cy then x.const = y.const
    else
      (* some j may match: conservative *)
      (y.const - x.const) mod (cx - cy) = 0
  | _ -> true

(* Smallest cross-iteration distance d >= 1 at which accesses with
   forms [x] (iteration j) and [y] (iteration j+d) may touch the same
   element; [None] when they never can. *)
let cross_distance (x : Dependence.form option) (y : Dependence.form option)
    : int option =
  match (x, y) with
  | Some x, Some y when x.syms = y.syms ->
    (* c_x*j + k_x = c_y*(j + d) + k_y *)
    let cx = x.coeffs.(0) and cy = y.coeffs.(0) in
    if cx <> cy then Some 1 (* different strides: conservative *)
    else if cx = 0 then if x.const = y.const then Some 1 else None
    else
      let num = x.const - y.const in
      if num mod cy = 0 && num / cy >= 1 then Some (num / cy) else None
  | _ -> Some 1

(* Executable meaning of a node, recorded for the cycle-accurate
   pipeline simulator (operand order matters and the edge list does not
   preserve it). *)
type node_sem =
  | Sconst of Types.value
  | Sreg of string
      (* live-in register for this base name; a carried register also
         has a distance-1 backedge from the live-out definition *)
  | Sbinop of Types.binop * int * int
  | Sunop of Types.unop * int
  | Sload of Types.array_id * int
  | Sstore of Types.array_id * int * int  (* index node, value node *)
  | Srom of Types.rom_id * int
  | Sselect of int * int * int
  | Smove of int

type detailed = {
  d_graph : Graph.t;
  d_ssa : Ssa.t;
  d_sem : node_sem array;
  d_live_out_nodes : (string * int) list;
      (* base scalar -> node holding its end-of-iteration value *)
}

type builder = {
  mutable nodes : Graph.node list;  (* reversed *)
  mutable sems : node_sem list;     (* reversed, parallel to nodes *)
  mutable edges : Graph.edge list;
  mutable next_id : int;
  mutable defs : int Smap.t;        (* SSA name -> defining node *)
  mutable reg_sources : int Smap.t; (* live-in/invariant var -> source node *)
  mutable pending_carried : (string * int) list;  (* base var, consumer *)
  mutable accesses : (Types.array_id * access_info) list;  (* reversed *)
}

let add_node b kind label sem =
  let id = b.next_id in
  b.next_id <- id + 1;
  b.nodes <- { Graph.id; kind; label } :: b.nodes;
  b.sems <- sem :: b.sems;
  id

let add_edge b src dst distance =
  b.edges <- { Graph.e_src = src; e_dst = dst; e_distance = distance } :: b.edges

(** Build the DFG of a straight-line loop body.

    [inner_index] (if given) names the loop index of the body, enabling
    memory disambiguation and marking the index as an implicit
    register source rather than a dependence.

    Returns the graph together with the SSA conversion (so callers can
    relate nodes, labeled by SSA names, back to source variables). *)
let build_detailed ?inner_index
    (body : Stmt.t list) : detailed =
  let ssa = Ssa.convert body in
  let carried_bases =
    (* base variables whose live-in version is fed by a body def:
       upward-exposed and defined *)
    Smap.fold
      (fun base inv acc ->
        match Smap.find_opt base ssa.Ssa.live_out with
        | Some outv when not (String.equal inv outv) ->
          Stmt.Sset.add base acc
        | _ -> acc)
      ssa.Ssa.live_in Stmt.Sset.empty
  in
  let body_defs = Stmt.defs body in
  let form = subscript_form ~inner_index ~body_defs in
  let b =
    { nodes = []; sems = []; edges = []; next_id = 0; defs = Smap.empty;
      reg_sources = Smap.empty; pending_carried = []; accesses = [] }
  in
  (* returns the node producing the value of [e], creating nodes *)
  let rec node_of (e : Expr.t) : int =
    match e with
    | Expr.Int n ->
      add_node b Opinfo.Op_const (string_of_int n) (Sconst (Types.VInt n))
    | Expr.Float f ->
      add_node b Opinfo.Op_const (Printf.sprintf "%g" f)
        (Sconst (Types.VFloat f))
    | Expr.Var v -> (
      match Smap.find_opt v b.defs with
      | Some id -> id
      | None ->
        (* a live-in version: either fed back by the body (carried) or a
           register at the top of the graph *)
        let base = Ssa.base_name v in
        if Stmt.Sset.mem base carried_bases then begin
          (* placeholder register; the backedge is added at the end *)
          match Smap.find_opt v b.reg_sources with
          | Some id -> id
          | None ->
            let id = add_node b Opinfo.Op_move (base ^ "@carry") (Sreg base) in
            b.reg_sources <- Smap.add v id b.reg_sources;
            b.pending_carried <- (base, id) :: b.pending_carried;
            id
        end
        else begin
          match Smap.find_opt v b.reg_sources with
          | Some id -> id
          | None ->
            let id = add_node b Opinfo.Op_move (base ^ "@in") (Sreg base) in
            b.reg_sources <- Smap.add v id b.reg_sources;
            id
        end)
    | Expr.Load (a, i) ->
      let ni = node_of i in
      let id = add_node b Opinfo.Op_load (Printf.sprintf "%s[]" a) (Sload (a, ni)) in
      add_edge b ni id 0;
      add_mem_edges a { acc_node = id; acc_write = false; acc_form = form i };
      id
    | Expr.Rom (r, i) ->
      let ni = node_of i in
      let id = add_node b Opinfo.Op_rom (Printf.sprintf "%s()" r) (Srom (r, ni)) in
      add_edge b ni id 0;
      id
    | Expr.Unop (o, x) ->
      let nx = node_of x in
      let id = add_node b (Opinfo.Op_unop o) (Types.unop_name o) (Sunop (o, nx)) in
      add_edge b nx id 0;
      id
    | Expr.Binop (o, l, r) ->
      let nl = node_of l in
      let nr = node_of r in
      let id =
        add_node b (Opinfo.Op_binop o) (Types.binop_name o)
          (Sbinop (o, nl, nr))
      in
      add_edge b nl id 0;
      add_edge b nr id 0;
      id
    | Expr.Select (c, t, f) ->
      let nc = node_of c in
      let nt = node_of t in
      let nf = node_of f in
      let id = add_node b Opinfo.Op_select "select" (Sselect (nc, nt, nf)) in
      add_edge b nc id 0;
      add_edge b nt id 0;
      add_edge b nf id 0;
      id

  and add_mem_edges array_id (acc : access_info) =
    (* ordering edges against every earlier access to the same array *)
    List.iter
      (fun (a, earlier) ->
        if String.equal a array_id && (earlier.acc_write || acc.acc_write)
        then begin
          if may_alias_intra earlier.acc_form acc.acc_form then
            add_edge b earlier.acc_node acc.acc_node 0;
          (match cross_distance acc.acc_form earlier.acc_form with
          | Some d -> add_edge b acc.acc_node earlier.acc_node d
          | None -> ());
          match cross_distance earlier.acc_form acc.acc_form with
          | Some d -> add_edge b earlier.acc_node acc.acc_node d
          | None -> ()
        end)
      b.accesses;
    (* cross-iteration self-conflict of a store *)
    if acc.acc_write then begin
      match cross_distance acc.acc_form acc.acc_form with
      | Some d -> add_edge b acc.acc_node acc.acc_node d
      | None -> ()
    end;
    b.accesses <- (array_id, acc) :: b.accesses
  in
  List.iter
    (fun s ->
      match s with
      | Stmt.Assign (x, e) ->
        let n = node_of e in
        (* reuse the producing node as the def unless the rhs is a bare
           variable or constant, which needs an explicit move/register *)
        let def_node =
          match e with
          | Expr.Var _ ->
            let id = add_node b Opinfo.Op_move x (Smove n) in
            add_edge b n id 0;
            id
          | Expr.Int _ | Expr.Float _ -> n
          | _ -> n
        in
        b.defs <- Smap.add x def_node b.defs
      | Stmt.Store (a, i, e) ->
        let ni = node_of i in
        let nv = node_of e in
        let id =
          add_node b Opinfo.Op_store (Printf.sprintf "%s[]=" a)
            (Sstore (a, ni, nv))
        in
        add_edge b ni id 0;
        add_edge b nv id 0;
        add_mem_edges a { acc_node = id; acc_write = true; acc_form = form i }
      | Stmt.If _ | Stmt.For _ ->
        Types.ir_error "DFG build requires a straight-line body")
    ssa.Ssa.ssa_body;
  (* resolve carried backedges: def of the live-out version feeds the
     carry register with distance 1 *)
  List.iter
    (fun (base, reg_node) ->
      match Smap.find_opt base ssa.Ssa.live_out with
      | Some outv -> (
        match Smap.find_opt outv b.defs with
        | Some def_node -> add_edge b def_node reg_node 1
        | None -> ())
      | None -> ())
    b.pending_carried;
  let g = Graph.create (List.rev b.nodes) b.edges in
  let live_out_nodes =
    Smap.fold
      (fun base outv acc ->
        match Smap.find_opt outv b.defs with
        | Some n -> (base, n) :: acc
        | None -> acc)
      ssa.Ssa.live_out []
  in
  { d_graph = g;
    d_ssa = ssa;
    d_sem = Array.of_list (List.rev b.sems);
    d_live_out_nodes = live_out_nodes }

(** Build the DFG of a straight-line loop body (graph + SSA only). *)
let build ?inner_index (body : Stmt.t list) : Graph.t * Ssa.t =
  let d = build_detailed ?inner_index body in
  (d.d_graph, d.d_ssa)
