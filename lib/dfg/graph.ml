(* The data-flow graph (Figure 4.1): nodes are datapath operations,
   edges carry the dependence distance in iterations — 0 for
   intra-iteration flow, k >= 1 for loop-carried dependences
   ("backedges" in the paper's terminology, drawn from the bottom of the
   graph back to the registers at the top). *)

open Uas_ir

type node = {
  id : int;
  kind : Opinfo.op_kind;
  label : string;  (** defined SSA name, or a description of the op *)
}

type edge = {
  e_src : int;
  e_dst : int;
  e_distance : int;  (** iterations: 0 = same iteration, >=1 = carried *)
}

type t = {
  nodes : node array;
  edges : edge list;
  succs : (int * int) list array;  (** per node: (dst, distance) *)
  preds : (int * int) list array;  (** per node: (src, distance) *)
}

let node_count g = Array.length g.nodes
let node g i = g.nodes.(i)
let delay g i = Opinfo.default_delay g.nodes.(i).kind

let create (nodes : node list) (edges : edge list) : t =
  let nodes = Array.of_list nodes in
  Array.iteri
    (fun i n ->
      if n.id <> i then Types.ir_error "node %d has id %d" i n.id)
    nodes;
  let n = Array.length nodes in
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun e ->
      if e.e_src < 0 || e.e_src >= n || e.e_dst < 0 || e.e_dst >= n then
        Types.ir_error "edge %d->%d out of range" e.e_src e.e_dst;
      if e.e_distance < 0 then
        Types.ir_error "edge %d->%d has negative distance" e.e_src e.e_dst;
      succs.(e.e_src) <- (e.e_dst, e.e_distance) :: succs.(e.e_src);
      preds.(e.e_dst) <- (e.e_src, e.e_distance) :: preds.(e.e_dst))
    edges;
  { nodes; edges; succs; preds }

(** Real datapath operators (excludes moves/constants). *)
let operator_nodes g =
  Array.to_list g.nodes |> List.filter (fun n -> Opinfo.is_real_operator n.kind)

let operator_count g = List.length (operator_nodes g)

let memory_op_count g =
  Array.to_list g.nodes
  |> List.filter (fun n -> Opinfo.uses_memory_port n.kind)
  |> List.length

let total_operator_area g =
  Array.fold_left (fun a n -> a + Opinfo.default_area n.kind) 0 g.nodes

(** Topological order of the distance-0 subgraph.
    @raise Ir_error if the intra-iteration subgraph has a cycle (a
    malformed DFG: SSA bodies are always acyclic within an iteration). *)
let topo_order (g : t) : int list =
  let n = node_count g in
  let indeg = Array.make n 0 in
  Array.iteri
    (fun _i succs ->
      List.iter (fun (d, dist) -> if dist = 0 then indeg.(d) <- indeg.(d) + 1) succs)
    g.succs;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    order := i :: !order;
    List.iter
      (fun (d, dist) ->
        if dist = 0 then begin
          indeg.(d) <- indeg.(d) - 1;
          if indeg.(d) = 0 then Queue.add d queue
        end)
      g.succs.(i)
  done;
  if !seen <> n then Types.ir_error "intra-iteration DFG has a cycle";
  List.rev !order

(** Length of the longest intra-iteration path, in cycles: the delay of
    the critical path through one iteration. *)
let critical_path (g : t) : int =
  let order = topo_order g in
  let finish = Array.make (node_count g) 0 in
  List.iter
    (fun i ->
      let start =
        List.fold_left
          (fun m (s, dist) -> if dist = 0 then max m finish.(s) else m)
          0 g.preds.(i)
      in
      finish.(i) <- start + delay g i)
    order;
  Array.fold_left max 0 finish

(* Strongly connected components by Tarjan's algorithm, iteratively —
   an explicit stack of (node, successors still to visit) frames — so a
   jammed graph of thousands of nodes cannot overflow the call stack.
   Returns every node's component index and the component count. *)
let components (g : t) : int array * int =
  let n = node_count g in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let comp = Array.make n (-1) and on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and count = ref 0 in
  let enter v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      let frames = ref [ (root, g.succs.(root)) ] in
      while !frames <> [] do
        match !frames with
        | (v, (w, _) :: rest) :: up ->
          frames := (v, rest) :: up;
          if index.(w) < 0 then begin
            enter w;
            frames := (w, g.succs.(w)) :: !frames
          end
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        | (v, []) :: up ->
          frames := up;
          (match up with
          | (u, _) :: _ -> low.(u) <- min low.(u) low.(v)
          | [] -> ());
          if low.(v) = index.(v) then begin
            let rec pop () =
              match !stack with
              | w :: tl ->
                stack := tl;
                on_stack.(w) <- false;
                comp.(w) <- !count;
                if w <> v then pop ()
              | [] -> assert false
            in
            pop ();
            incr count
          end
        | [] -> assert false
      done
    end
  done;
  (comp, !count)

(** Total delay around the heaviest recurrence per unit distance:
    max over cycles C of ceil(delay(C) / distance(C)).  0 when the graph
    has no recurrence.  Every cycle lies inside one strongly connected
    component, so the bound is the maximum over the components that
    have an internal edge.  Per component, a binary search on II: II
    is feasible iff the component with edge weights
    delay(src) - II*distance has no positive-weight cycle
    (Bellman-Ford).  A component that is already feasible at the best
    bound found so far cannot raise it and costs one probe. *)
let recurrence_mii (g : t) : int =
  let comp, count = components g in
  let internal = Array.make count [] in
  List.iter
    (fun e ->
      let c = comp.(e.e_src) in
      if c = comp.(e.e_dst) then internal.(c) <- e :: internal.(c))
    g.edges;
  (* local node numbering inside each component *)
  let local = Array.make (node_count g) 0 and size = Array.make count 0 in
  Array.iteri
    (fun v c ->
      local.(v) <- size.(c);
      size.(c) <- size.(c) + 1)
    comp;
  let bound = Array.make count 1 in
  Array.iter
    (fun nd ->
      let c = comp.(nd.id) in
      bound.(c) <- bound.(c) + Opinfo.cycle_cost nd.kind)
    g.nodes;
  (* no II is feasible (a positive cycle of distance 0, which a
     well-formed DFG never has): the whole graph's search bound *)
  let unbounded = Array.fold_left ( + ) 1 bound - count in
  let best = ref 0 in
  (try
     Array.iteri
       (fun c edges ->
         if edges <> [] then begin
           let n = size.(c) in
           let edges = Array.of_list edges in
           let src = Array.map (fun e -> local.(e.e_src)) edges
           and dst = Array.map (fun e -> local.(e.e_dst)) edges
           and w0 = Array.map (fun e -> delay g e.e_src) edges
           and dist = Array.map (fun e -> e.e_distance) edges in
           let m = Array.length edges in
           let value = Array.make n 0 in
           let has_positive_cycle ii =
             (* longest paths from a virtual source: simple paths have
                at most n-1 edges, so values still changing after n+1
                relaxation passes mean a positive-weight cycle *)
             Array.fill value 0 n 0;
             let pass () =
               let changed = ref false in
               for k = 0 to m - 1 do
                 let x = value.(src.(k)) + w0.(k) - (ii * dist.(k)) in
                 if x > value.(dst.(k)) then begin
                   value.(dst.(k)) <- x;
                   changed := true
                 end
               done;
               !changed
             in
             let rec go k =
               if not (pass ()) then false else k > n || go (k + 1)
             in
             go 0
           in
           if has_positive_cycle !best then begin
             (* smallest ii in (best, bound] without a positive cycle *)
             let hi = bound.(c) in
             if !best >= hi then raise Exit;
             let lo = ref (!best + 1) and hi = ref hi in
             while !lo < !hi do
               let mid = (!lo + !hi) / 2 in
               if has_positive_cycle mid then lo := mid + 1 else hi := mid
             done;
             if !lo = bound.(c) && has_positive_cycle !lo then raise Exit;
             best := !lo
           end
         end)
       internal;
     !best
   with Exit -> unbounded)

let pp ppf (g : t) =
  Fmt.pf ppf "dfg: %d nodes, %d edges@\n" (node_count g) (List.length g.edges);
  Array.iter
    (fun nd ->
      Fmt.pf ppf "  n%d [%s] %s -> %a@\n" nd.id
        (Opinfo.op_kind_name nd.kind)
        nd.label
        Fmt.(list ~sep:(any ", ") (fun ppf (d, k) ->
                 if k = 0 then Fmt.pf ppf "n%d" d else Fmt.pf ppf "n%d(+%d)" d k))
        g.succs.(nd.id))
    g.nodes
