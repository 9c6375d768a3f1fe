(* Scheduling (§3.5, §6): computes the initiation interval and issue
   times that the hardware estimator reports.

   - [list_schedule]: resource-constrained acyclic scheduling of one
     iteration (the *original*, non-overlapped execution: the next
     iteration starts only when the current one finishes, so II equals
     the schedule length);
   - [optimal_schedule]: the exact search — a budgeted branch-and-bound
     over the modulo reservation table that proves candidate IIs
     infeasible or returns a witness, so the first feasible II is
     certified optimal;
   - [modulo_schedule]: the pipelined schedule, from one II search: a
     greedy constraint-relaxation placement at max(RecMII, ResMII),
     which is optimal when it succeeds, else the exact search's
     certified optimum (placed greedily once more at that II, or the
     exact witness); only an exhausted exact budget walks the greedy
     placement upward, with a note;
   - [check_schedule]: the validity checker every backend (and the
     test suites) use as a shared post-condition, written directly
     from the constraint system rather than from either scheduler. *)

open Uas_ir

type config = {
  mem_ports : int;  (** memory references allowed per clock (§6.1: 2) *)
}

let default_config = { mem_ports = 2 }

type schedule = {
  s_ii : int;             (** initiation interval in cycles *)
  s_times : int array;    (** issue cycle of every node *)
  s_length : int;         (** makespan of one iteration *)
}

let resource_mii (cfg : config) (g : Graph.t) : int =
  let mems = Graph.memory_op_count g in
  if mems = 0 then 1 else (mems + cfg.mem_ports - 1) / cfg.mem_ports

(** Lower bound on the pipelined II: recurrence- and resource-
    constrained. *)
let min_ii (cfg : config) (g : Graph.t) : int =
  max 1 (max (Graph.recurrence_mii g) (resource_mii cfg g))

let makespan (g : Graph.t) (times : int array) : int =
  let len = ref 0 in
  Array.iteri (fun i t -> len := max !len (t + Graph.delay g i)) times;
  max 1 !len

(** Resource-constrained list schedule of one iteration, honoring only
    intra-iteration (distance-0) edges.  Memory operations respect the
    port limit per absolute cycle. *)
let list_schedule ?(cfg = default_config) (g : Graph.t) : schedule =
  let n = Graph.node_count g in
  let times = Array.make n 0 in
  let order = Graph.topo_order g in
  let mem_use : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let ready =
        List.fold_left
          (fun t (p, dist) ->
            if dist = 0 then max t (times.(p) + Graph.delay g p) else t)
          0 g.Graph.preds.(i)
      in
      let needs_port = Opinfo.uses_memory_port (Graph.node g i).kind in
      let rec place t =
        if needs_port then begin
          let used = Option.value ~default:0 (Hashtbl.find_opt mem_use t) in
          if used >= cfg.mem_ports then place (t + 1)
          else begin
            Hashtbl.replace mem_use t (used + 1);
            t
          end
        end
        else t
      in
      times.(i) <- place ready)
    order;
  let length = makespan g times in
  { s_ii = length; s_times = times; s_length = length }

(* Check every edge constraint t(dst) >= t(src) + delay(src) - II*dist. *)
let feasible (g : Graph.t) ~ii times =
  List.for_all
    (fun e ->
      times.(e.Graph.e_dst)
      >= times.(e.Graph.e_src) + Graph.delay g e.Graph.e_src
         - (ii * e.Graph.e_distance))
    g.Graph.edges

(* ---- the validity checker (shared post-condition) ---- *)

(** Verify a schedule against the raw constraint system — every
    dependence edge with its distance×II slack and every modulo
    reservation row — independently of how it was produced.  A
    non-pipelined list schedule passes the same check: its II equals
    its makespan, so rows coincide with absolute cycles and
    cross-iteration edges are trivially slack. *)
let check_schedule ?(cfg = default_config) (g : Graph.t) (s : schedule) :
    (unit, string list) result =
  let n = Graph.node_count g in
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := m :: !errs) fmt in
  if Array.length s.s_times <> n then
    err "times array has %d entries for %d nodes" (Array.length s.s_times) n
  else begin
    if s.s_ii < 1 then err "initiation interval %d < 1" s.s_ii;
    Array.iteri
      (fun i t -> if t < 0 then err "node %d issues at negative cycle %d" i t)
      s.s_times;
    List.iter
      (fun e ->
        let slack =
          s.s_times.(e.Graph.e_dst) - s.s_times.(e.Graph.e_src)
          - Graph.delay g e.Graph.e_src
          + (s.s_ii * e.Graph.e_distance)
        in
        if slack < 0 then
          err "dependence %d -> %d (distance %d) violated by %d cycle(s)"
            e.Graph.e_src e.Graph.e_dst e.Graph.e_distance (-slack))
      g.Graph.edges;
    if s.s_ii >= 1 then begin
      let rows = Array.make s.s_ii 0 in
      Array.iteri
        (fun i t ->
          if Opinfo.uses_memory_port (Graph.node g i).kind then begin
            let r = ((t mod s.s_ii) + s.s_ii) mod s.s_ii in
            rows.(r) <- rows.(r) + 1
          end)
        s.s_times;
      Array.iteri
        (fun r used ->
          if used > cfg.mem_ports then
            err "modulo row %d holds %d memory ops (ports: %d)" r used
              cfg.mem_ports)
        rows
    end;
    let len = makespan g s.s_times in
    if s.s_length <> len then
      err "recorded makespan %d but issue times span %d" s.s_length len
  end;
  match List.rev !errs with [] -> Ok () | es -> Error es

(* ---- the longest-path solver shared by both backends ---- *)

exception Out_of_effort

exception Blocked

(* The work queue of {!relax_up}, allocated once per placement and
   reused by every re-solve: a FIFO ring over node ids and the
   in-queue flags.  Each node is queued at most once, so [n] cells plus
   one for the round sentinel suffice.  The queue also logs the
   [watched] nodes it takes in on [moved], each once until the caller
   drains the log and watches it again: a greedy placement watches its
   memory ops, the exact search none. *)
type relax_queue = {
  ring : int array;
  inq : bool array;
  mutable head : int;
  mutable len : int;
  watched : bool array;
  moved : int array;
  mutable n_moved : int;
}

let relax_queue n =
  { ring = Array.make (n + 1) 0;
    inq = Array.make n false;
    head = 0;
    len = 0;
    watched = Array.make n false;
    moved = Array.make n 0;
    n_moved = 0 }

let push q i =
  let k = q.head + q.len in
  q.ring.(if k >= Array.length q.ring then k - Array.length q.ring else k) <- i;
  q.len <- q.len + 1

let pop q =
  let i = q.ring.(q.head) in
  q.head <- (if q.head + 1 = Array.length q.ring then 0 else q.head + 1);
  q.len <- q.len - 1;
  i

(* Queue a seed of the next {!relax_up}.  Every node a re-solve raises
   passes through here (a raised node already in the queue was seeded
   earlier in the same re-solve), so the [moved] log holds every
   watched node whose time went up. *)
let seed q i =
  if not q.inq.(i) then begin
    push q i;
    q.inq.(i) <- true;
    if q.watched.(i) then begin
      q.watched.(i) <- false;
      q.moved.(q.n_moved) <- i;
      q.n_moved <- q.n_moved + 1
    end
  end

(* The out-edges of one dequeued node, whose time is [ti]. *)
let rec relax_edges effort q t ti = function
  | [] -> ()
  | (j, w) :: rest ->
    decr effort;
    if !effort < 0 then raise Out_of_effort;
    if ti + w > t.(j) then begin
      t.(j) <- ti + w;
      seed q j
    end;
    relax_edges effort q t ti rest

(* Raise [t] in place to the least fixpoint of t(dst) >= t(src) + w at
   or above its starting values, revisiting what the seeded nodes
   reach.  Queue-based Bellman-Ford with round sentinels: nodes still
   active after [max_rounds] rounds mean a positive cycle (the II is
   infeasible) — the fixpoint is unique, so this computes exactly what
   a pass-based relaxation would, only incrementally.  Returns [false]
   on positive cycle.  Either way the queue is left empty for the next
   call.  Every edge relaxation costs one unit of [effort]; exhausting
   the budget raises {!Out_of_effort}, after which the caller abandons
   the queue. *)
let relax_up ~effort ~max_rounds (q : relax_queue)
    (adj : (int * int) list array) (t : int array) : bool =
  push q (-1);
  let rounds = ref 0 in
  try
    while q.len > 1 do
      let i = pop q in
      if i = -1 then begin
        incr rounds;
        if !rounds > max_rounds then raise Blocked;
        push q (-1)
      end
      else begin
        q.inq.(i) <- false;
        relax_edges effort q t t.(i) adj.(i)
      end
    done;
    q.len <- 0;
    true
  with Blocked ->
    while q.len > 0 do
      let i = pop q in
      if i >= 0 then q.inq.(i) <- false
    done;
    false

(* {!relax_up} seeded with every node. *)
let relax_all ~effort ~max_rounds q adj t =
  for i = 0 to Array.length t - 1 do
    seed q i
  done;
  relax_up ~effort ~max_rounds q adj t

(* Weighted successor / predecessor adjacency at a fixed II: the edge
   src -> dst of distance d contributes t(dst) >= t(src) + delay(src)
   - II*d. *)
let succ_adj (g : Graph.t) ~ii =
  let adj = Array.make (Graph.node_count g) [] in
  List.iter
    (fun e ->
      let w = Graph.delay g e.Graph.e_src - (ii * e.Graph.e_distance) in
      adj.(e.Graph.e_src) <- (e.Graph.e_dst, w) :: adj.(e.Graph.e_src))
    g.Graph.edges;
  adj

let mem_nodes_of (g : Graph.t) : int list =
  List.filter
    (fun i -> Opinfo.uses_memory_port (Graph.node g i).kind)
    (List.init (Graph.node_count g) (fun i -> i))

(* Modulo placement at a fixed II by constraint relaxation (an SDC-style
   formulation): the Bellman-Ford solution satisfies every dependence by
   construction; memory-port oversubscription of a modulo slot is
   resolved by bumping the latest offender's lower bound and re-solving
   incrementally (the re-solved fixpoint is identical to a from-scratch
   solve, because the old fixpoint dominates every lower bound except
   the bumped one), so dependences stay satisfied.  A bounded number
   of bumps keeps it total.

   A bump costs what it moves.  The modulo reservation table is kept
   up to date rather than rebuilt: times start at 0 and only rise, so
   a memory op's row is [t mod ii], cached per op, and each row keeps
   its count and a doubly linked list of its members.  The queue logs
   the memory ops a re-solve raised, and only those change rows.  The
   lowest oversubscribed row is found from a cursor below which no row
   is oversubscribed, and its latest op from that row's members alone.
   A bump allocates nothing: all of this is made once per placement. *)
let try_modulo (cfg : config) (g : Graph.t) ~effort ~ii : int array option =
  let n = Graph.node_count g in
  let mem = Array.of_list (mem_nodes_of g) in
  let m = Array.length mem in
  let mem_idx = Array.make n (-1) in
  Array.iteri (fun a i -> mem_idx.(i) <- a) mem;
  let adj = succ_adj g ~ii in
  let t = Array.make n 0 in
  let q = relax_queue n in
  let max_rounds = n + 1 in
  let budget = ref (64 + (m * ii * 4)) in
  (* per row: its count and first member; per memory index: its row
     and its row neighbours (-1 ends a list) *)
  let rows = Array.make ii 0 and first = Array.make ii (-1) in
  let row_of = Array.make m 0 and prev = Array.make m (-1)
  and next = Array.make m (-1) in
  (* no row below [lowest] is oversubscribed *)
  let lowest = ref 0 in
  let enter a r =
    row_of.(a) <- r;
    rows.(r) <- rows.(r) + 1;
    prev.(a) <- -1;
    next.(a) <- first.(r);
    if first.(r) >= 0 then prev.(first.(r)) <- a;
    first.(r) <- a;
    if rows.(r) > cfg.mem_ports && r < !lowest then lowest := r
  in
  let leave a =
    let r = row_of.(a) in
    rows.(r) <- rows.(r) - 1;
    if prev.(a) >= 0 then next.(prev.(a)) <- next.(a)
    else first.(r) <- next.(a);
    if next.(a) >= 0 then prev.(next.(a)) <- prev.(a)
  in
  (* move the memory ops the last re-solve raised to their new rows,
     and watch them again *)
  let drain () =
    for k = 0 to q.n_moved - 1 do
      let i = q.moved.(k) in
      q.watched.(i) <- true;
      let a = mem_idx.(i) and r = t.(i) mod ii in
      if r <> row_of.(a) then begin
        leave a;
        enter a r
      end
    done;
    q.n_moved <- 0
  in
  (* the op to bump: in the lowest oversubscribed modulo row, the
     latest-issued memory op — it has the most slack left before
     wrapping all the way around — ties to the highest node id; -1 when
     every row fits the ports *)
  let offender () =
    while !lowest < ii && rows.(!lowest) <= cfg.mem_ports do
      incr lowest
    done;
    let latest = ref (-1) in
    if !lowest < ii then begin
      let a = ref first.(!lowest) in
      while !a >= 0 do
        let i = mem.(!a) in
        if
          !latest < 0
          || t.(i) > t.(!latest)
          || (t.(i) = t.(!latest) && i > !latest)
        then latest := i;
        a := next.(!a)
      done
    end;
    !latest
  in
  let rec solve () =
    let i = offender () in
    if i < 0 then true
    else begin
      decr budget;
      !budget > 0
      && begin
        t.(i) <- t.(i) + 1;
        seed q i;
        relax_up ~effort ~max_rounds q adj t
        && begin
          drain ();
          solve ()
        end
      end
    end
  in
  let placed () =
    Array.iteri
      (fun a i ->
        enter a (t.(i) mod ii);
        q.watched.(i) <- true)
      mem;
    solve ()
  in
  if relax_all ~effort ~max_rounds q adj t && placed () && feasible g ~ii t
  then Some t
  else None

(* ---- the exact backend ---- *)

type exact_status = Exact_optimal | Exact_unknown

type exact = {
  e_status : exact_status;
  e_schedule : schedule option;
  e_min_ii : int;
  e_proved : int;
  e_expansions : int;
  e_effort_exhausted : bool;
}

(* ceil(a / b) for b > 0 and either sign of a *)
let cdiv a b = if a > 0 then (a + b - 1) / b else -(-a / b)

let neg_inf = min_int / 4

(* Symmetry breaking for the exact search: unroll-and-jam produces
   disjoint, schedule-isomorphic copies of the loop body, and any
   solution can permute whole copies, so the canonical solution orders
   the copies' first memory residues.  Two connected components are
   schedule-isomorphic when, under the order-preserving node map, every
   position has the same delay and port usage and both have the same
   positioned edge set (labels and constants may differ — they do not
   affect validity).  Returns [prev]: for each memory node (by memory
   index), the memory index whose residue must stay <= its own, or -1. *)
let symmetry_chain (g : Graph.t) (mem : int array) (mem_idx : int array) :
    int array =
  let n = Graph.node_count g in
  let m = Array.length mem in
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  List.iter
    (fun e ->
      let rx = find e.Graph.e_src and ry = find e.Graph.e_dst in
      if rx <> ry then
        if rx < ry then parent.(ry) <- rx else parent.(rx) <- ry)
    g.Graph.edges;
  let comp_nodes : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = find v in
    let tl = Option.value ~default:[] (Hashtbl.find_opt comp_nodes r) in
    Hashtbl.replace comp_nodes r (v :: tl)
  done;
  let comp_edges : (int, (int * int * int) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let pos_of : (int, int) Hashtbl.t = Hashtbl.create n in
  Hashtbl.iter
    (fun _ vs -> List.iteri (fun p v -> Hashtbl.replace pos_of v p) vs)
    comp_nodes;
  List.iter
    (fun e ->
      let r = find e.Graph.e_src in
      let tup =
        ( Hashtbl.find pos_of e.Graph.e_src,
          Hashtbl.find pos_of e.Graph.e_dst,
          e.Graph.e_distance )
      in
      let tl = Option.value ~default:[] (Hashtbl.find_opt comp_edges r) in
      Hashtbl.replace comp_edges r (tup :: tl))
    g.Graph.edges;
  (* signature -> leaders (first memory node of each copy), in node
     order so the chain is deterministic *)
  let signature vs root =
    ( List.map
        (fun v ->
          (Graph.delay g v, Opinfo.uses_memory_port (Graph.node g v).kind))
        vs,
      List.sort compare
        (Option.value ~default:[] (Hashtbl.find_opt comp_edges root)) )
  in
  let groups = ref [] in
  let roots =
    List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) comp_nodes [])
  in
  List.iter
    (fun root ->
      let vs = Hashtbl.find comp_nodes root in
      match List.find_opt (fun v -> mem_idx.(v) >= 0) vs with
      | None -> ()
      | Some leader ->
        let sg = signature vs root in
        let rec add = function
          | [] -> groups := !groups @ [ (sg, ref [ leader ]) ]
          | (sg', leaders) :: rest ->
            if sg = sg' then leaders := leader :: !leaders else add rest
        in
        add !groups)
    roots;
  let prev = Array.make m (-1) in
  List.iter
    (fun (_, leaders) ->
      let chain = List.rev !leaders in
      ignore
        (List.fold_left
           (fun before v ->
             (match before with
             | Some b -> prev.(mem_idx.(v)) <- mem_idx.(b)
             | None -> ());
             Some v)
           None chain))
    !groups;
  prev

(* Decide one candidate II exactly, in residue space.

   A modulo schedule is determined by the residues (mod II) of the
   memory nodes — the only resource-constrained ones: write their times
   as t(a) = r(a) + II*k(a) and every non-memory node takes the least
   fixpoint over its predecessors.  Let L(a,b) be the longest walk from
   memory node a to memory node b whose intermediates are all
   non-memory (finite because every cycle has non-positive gain at
   II >= RecMII; walks through a third memory node c compose
   transitively through c's own constraint, which is tighter).  Then a
   schedule with residues r exists iff the pure difference system

       k(b) - k(a) >= ceil((L(a,b) + r(a) - r(b)) / II)

   has a solution, decided by Bellman-Ford positive-cycle detection
   over the memory nodes alone — no time horizon and no slow climb
   toward one.  The branch-and-bound assigns residues one memory node
   at a time (most-coupled-to-assigned first, earliest-issue residue
   first), pruning on reservation-row capacity, a pigeonhole count, and
   infeasibility of the partial k-system (sound: it relaxes unassigned
   nodes to unconstrained).  Exhausting the tree without a witness is a
   proof that the II is infeasible. *)
let decide (cfg : config) (g : Graph.t) ~effort ~expansions ~ii =
  let n = Graph.node_count g in
  let mem = Array.of_list (mem_nodes_of g) in
  let m = Array.length mem in
  let mem_idx = Array.make n (-1) in
  Array.iteri (fun a i -> mem_idx.(i) <- a) mem;
  let adj = succ_adj g ~ii in
  let q = relax_queue n in
  let asap = Array.make n 0 in
  let round_up t r = t + ((((r - t) mod ii) + ii) mod ii) in
  (* a positive cycle at this II is infeasible outright *)
  if not (relax_all ~effort ~max_rounds:(n + 1) q adj asap) then
    `Infeasible
  else begin
    (* L.(a).(b): longest memory-free walk between memory endpoints.
       One bounded Bellman-Ford per source; walks never relax out of a
       memory node, so intermediates stay non-memory. *)
    let l = Array.make_matrix m m neg_inf in
    Array.iteri
      (fun a s ->
        let d = Array.make n neg_inf in
        let q = Queue.create () in
        let inq = Array.make n false in
        let arrive v x =
          decr effort;
          if !effort < 0 then raise Out_of_effort;
          let b = mem_idx.(v) in
          if b >= 0 then begin
            if x > l.(a).(b) then l.(a).(b) <- x
          end
          else if x > d.(v) then begin
            d.(v) <- x;
            if not inq.(v) then begin
              Queue.add v q;
              inq.(v) <- true
            end
          end
        in
        List.iter (fun (v, w) -> arrive v w) adj.(s);
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          inq.(u) <- false;
          let du = d.(u) in
          List.iter (fun (v, w) -> arrive v (du + w)) adj.(u)
        done)
      mem;
    (* max-plus transitive closure over the memory nodes (walks through
       any intermediates): the tightest pairwise bounds, with
       t(b) - t(a) >= C(a,b) in every schedule.  A pair bounded from
       both sides with negative total slack kills the II outright. *)
    let c = Array.map Array.copy l in
    for v = 0 to m - 1 do
      for a = 0 to m - 1 do
        effort := !effort - m;
        if !effort < 0 then raise Out_of_effort;
        let row_a = c.(a) in
        if row_a.(v) > neg_inf then begin
          let cav = row_a.(v) and row_v = c.(v) in
          for b = 0 to m - 1 do
            if row_v.(b) > neg_inf && cav + row_v.(b) > row_a.(b) then
              row_a.(b) <- cav + row_v.(b)
          done
        end
      done
    done;
    let impossible = ref false in
    for a = 0 to m - 1 do
      for b = 0 to m - 1 do
        if
          c.(a).(b) > neg_inf
          && c.(b).(a) > neg_inf
          && c.(a).(b) + c.(b).(a) > 0
        then impossible := true
      done
    done;
    if !impossible then `Infeasible
    else begin
      begin
        let sym_prev = symmetry_chain g mem mem_idx in
        let sym_next = Array.make m (-1) in
        Array.iteri
          (fun a p -> if p >= 0 then sym_next.(p) <- a)
          sym_prev;
        let residue = Array.make m (-1) in
        let row_load = Array.make ii 0 in
        let k = Array.make m 0 in
        (* a pair is TIGHT when it is bounded from both sides with a
           window narrower than the II — only tight pairs restrict
           residues, so only they drive the fail-first variable choice:
           nodes with one-sided constraints (pure sources/sinks) can
           take any free reservation row and are placed last, where the
           pigeonhole bound makes them trivial *)
        let tight = Array.make_matrix m m false in
        for a = 0 to m - 1 do
          for b = 0 to m - 1 do
            if
              a <> b
              && c.(a).(b) > neg_inf
              && c.(b).(a) > neg_inf
              && -c.(b).(a) - c.(a).(b) < ii - 1
            then tight.(a).(b) <- true
          done
        done;
        let degree = Array.make m 0 in
        for a = 0 to m - 1 do
          for b = 0 to m - 1 do
            if tight.(a).(b) then degree.(a) <- degree.(a) + 1
          done
        done;
        let coupled = Array.make m 0 in
        let touch v delta =
          for u = 0 to m - 1 do
            if tight.(v).(u) then coupled.(u) <- coupled.(u) + delta
          done
        in
        (* incremental Bellman-Ford over the assigned k-system; round
           sentinel m+1 detects a positive cycle (dead branch) *)
        let relax_k seed =
          let q = Queue.create () in
          let inq = Array.make m false in
          Queue.add seed q;
          inq.(seed) <- true;
          Queue.add (-1) q;
          let rounds = ref 0 in
          try
            while Queue.length q > 1 do
              let a = Queue.pop q in
              if a = -1 then begin
                incr rounds;
                if !rounds > m + 1 then raise Blocked;
                Queue.add (-1) q
              end
              else begin
                inq.(a) <- false;
                let ka = k.(a) and ra = residue.(a) in
                for b = 0 to m - 1 do
                  decr effort;
                  if !effort < 0 then raise Out_of_effort;
                  if residue.(b) >= 0 && c.(a).(b) > neg_inf then begin
                    let cand = ka + cdiv (c.(a).(b) + ra - residue.(b)) ii in
                    if cand > k.(b) then begin
                      k.(b) <- cand;
                      if not inq.(b) then begin
                        Queue.add b q;
                        inq.(b) <- true
                      end
                    end
                  end
                done
              end
            done;
            true
          with Blocked -> false
        in
        (* witness from a full assignment: anchor the memory nodes at
           r + II*k (shifted up by whole IIs until every anchor clears
           its zero-source ASAP bound), give everything else its least
           fixpoint, and insist the independent checker accepts it *)
        let complete () =
          let shift = ref 0 in
          for a = 0 to m - 1 do
            let anchor = residue.(a) + (ii * k.(a)) in
            let need = cdiv (asap.(mem.(a)) - anchor) ii in
            if need > !shift then shift := need
          done;
          let t = Array.make n 0 in
          for a = 0 to m - 1 do
            t.(mem.(a)) <- residue.(a) + (ii * (k.(a) + !shift))
          done;
          if not (relax_all ~effort ~max_rounds:(n + 1) q adj t) then
            None
          else begin
            let s = { s_ii = ii; s_times = t; s_length = makespan g t } in
            (* a failure here would be a solver bug: abandon the branch
               rather than emit an invalid certificate *)
            match check_schedule ~cfg g s with Ok () -> Some s | Error _ -> None
          end
        in
        (* earliest issue time still open to unassigned node a, judged
           from the zero-source ASAP bound and the assigned anchors —
           used only to order residue trials, never to prune *)
        let earliest a =
          let lb = ref asap.(mem.(a)) in
          for b = 0 to m - 1 do
            if residue.(b) >= 0 && c.(b).(a) > neg_inf then begin
              let tb = residue.(b) + (ii * k.(b)) in
              if tb + c.(b).(a) > !lb then lb := tb + c.(b).(a)
            end
          done;
          !lb
        in
        let rec branch unassigned =
          if unassigned = 0 then complete ()
          else begin
            let free = ref 0 in
            Array.iter
              (fun load -> free := !free + max 0 (cfg.mem_ports - load))
              row_load;
            if !free < unassigned then None
            else begin
              (* branch on the node most coupled to the assigned set
                 (fail-first); ties by static degree, then index *)
              let a = ref (-1) in
              for u = m - 1 downto 0 do
                if
                  residue.(u) < 0
                  && (!a < 0
                     || coupled.(u) > coupled.(!a)
                     || (coupled.(u) = coupled.(!a)
                        && degree.(u) > degree.(!a)))
                then a := u
              done;
              let a = !a in
              (* a residue survives when its reservation row has space,
                 it respects the canonical copy order, and for every
                 assigned node sharing a two-sided difference window
                 narrower than the II, it lands inside that window *)
              let viable r =
                row_load.(r) < cfg.mem_ports
                && (sym_prev.(a) < 0
                   || residue.(sym_prev.(a)) < 0
                   || residue.(sym_prev.(a)) <= r)
                && (sym_next.(a) < 0
                   || residue.(sym_next.(a)) < 0
                   || r <= residue.(sym_next.(a)))
                &&
                let ok = ref true in
                for b = 0 to m - 1 do
                  if !ok && residue.(b) >= 0 && tight.(b).(a) then begin
                    let lo = c.(b).(a) in
                    let width = -c.(a).(b) - lo in
                    let rel =
                      (((r - residue.(b) - lo) mod ii) + ii) mod ii
                    in
                    if rel > width then ok := false
                  end
                done;
                !ok
              in
              effort := !effort - (ii * m);
              if !effort < 0 then raise Out_of_effort;
              let lb = earliest a in
              let dom =
                List.init ii (fun r -> r)
                |> List.filter viable
                |> List.sort (fun r1 r2 ->
                       compare (round_up lb r1) (round_up lb r2))
              in
              let saved_k = Array.copy k in
              let rec try_residues = function
                | [] -> None
                | r :: rest -> (
                  incr expansions;
                  residue.(a) <- r;
                  row_load.(r) <- row_load.(r) + 1;
                  touch a 1;
                  (* seed k(a) from its assigned predecessors, then
                     propagate *)
                  let ka = ref 0 in
                  for b = 0 to m - 1 do
                    if residue.(b) >= 0 && b <> a && c.(b).(a) > neg_inf
                    then begin
                      let x = k.(b) + cdiv (c.(b).(a) + residue.(b) - r) ii in
                      if x > !ka then ka := x
                    end
                  done;
                  k.(a) <- !ka;
                  let result =
                    if relax_k a then branch (unassigned - 1) else None
                  in
                  match result with
                  | Some _ -> result
                  | None ->
                    residue.(a) <- -1;
                    row_load.(r) <- row_load.(r) - 1;
                    touch a (-1);
                    Array.blit saved_k 0 k 0 m;
                    try_residues rest)
              in
              try_residues dom
            end
          end
        in
        match branch m with Some s -> `Feasible s | None -> `Infeasible
      end
    end
  end

(* Sized so every paper cell certifies its optimum in well under a
   second: the hardest refutations (DES-mem pipelined, squash(2),
   jam(2)) need a few thousand expansions. *)
let default_exact_effort = 80_000_000

(* Decide the IIs from [lower] upward until one is feasible (certified
   optimal: every smaller II was refuted) or [effort] runs out.  [cap]
   is a known-feasible II (the list-schedule length), so the search
   always ends with a witness unless the budget runs out first. *)
let exact_search cfg g ~effort ~lower ~cap : exact =
  let fuel = ref effort in
  let expansions = ref 0 in
  let result status sched ~proved ~exhausted =
    { e_status = status;
      e_schedule = sched;
      e_min_ii = lower;
      e_proved = proved;
      e_expansions = !expansions;
      e_effort_exhausted = exhausted }
  in
  let rec search ii =
    if ii > cap then result Exact_unknown None ~proved:ii ~exhausted:false
    else
      match decide cfg g ~effort:fuel ~expansions ~ii with
      | `Feasible s -> result Exact_optimal (Some s) ~proved:ii ~exhausted:false
      | `Infeasible -> search (ii + 1)
      | exception Out_of_effort ->
        result Exact_unknown None ~proved:ii ~exhausted:true
  in
  search lower

(** The exact II search: iterate the candidate II upward from [min_ii],
    proving each infeasible or returning a witness schedule, so the
    first feasible II is certified optimal; [Exact_unknown] when the
    [effort] budget runs out first.  Deterministic: the budget counts
    edge relaxations, not wall-clock. *)
let optimal_schedule ?(cfg = default_config)
    ?(effort = default_exact_effort) (g : Graph.t) : exact =
  let lower = min_ii cfg g in
  if Graph.node_count g = 0 then
    { e_status = Exact_optimal;
      e_schedule = Some { s_ii = 1; s_times = [||]; s_length = 1 };
      e_min_ii = lower;
      e_proved = 1;
      e_expansions = 0;
      e_effort_exhausted = false }
  else
    (* the list schedule is a valid modulo schedule at II = its length
       (rows coincide with absolute cycles) *)
    exact_search cfg g ~effort ~lower
      ~cap:(max lower (list_schedule ~cfg g).s_length)

(* ---- the II search ---- *)

(* Generous enough that every benchmark × version of the paper suite
   schedules without degrading; a graph that would burn seconds instead
   degrades to the list schedule with a note. *)
let default_effort = 50_000_000

(** The pipelined schedule with its note.  One greedy placement at
    [min_ii]: success is optimal by definition.  Otherwise the exact
    search certifies the optimum, and the greedy placement is tried
    once at that II (it keeps the greedy issue times where it
    succeeds), else the exact witness is taken.  Only when the exact
    budget runs out does the search walk the greedy placement upward
    from the smallest unrefuted II, noting that the result is not
    proven optimal.  An II at or above the acyclic list-schedule length
    takes the list schedule itself, and exhausting the greedy [effort]
    budget degrades to it with a note. *)
let modulo_schedule_note ?(cfg = default_config) ?(effort = default_effort)
    ?(exact_effort = default_exact_effort) (g : Graph.t) :
    schedule * string option =
  if Graph.node_count g = 0 then
    ({ s_ii = 1; s_times = [||]; s_length = 1 }, None)
  else begin
    let lower = min_ii cfg g in
    let fuel = ref effort in
    let current = ref lower in
    let fallback = lazy (list_schedule ~cfg g) in
    let non_overlapped () =
      let f = Lazy.force fallback in
      { f with s_ii = max 1 f.s_length }
    in
    let place ii =
      current := ii;
      Option.map
        (fun t -> { s_ii = ii; s_times = t; s_length = makespan g t })
        (try_modulo cfg g ~effort:fuel ~ii)
    in
    (* at or above the list-schedule length, the list schedule itself *)
    let greedy ii =
      if ii >= (Lazy.force fallback).s_length then Some (non_overlapped ())
      else place ii
    in
    try
      match place lower with
      | Some s -> (s, None)
      | None -> (
        let cap = max lower (Lazy.force fallback).s_length in
        let e = exact_search cfg g ~effort:exact_effort ~lower ~cap in
        match e.e_schedule with
        | Some w when w.s_ii > lower ->
          (Option.value ~default:w (greedy w.s_ii), None)
        | Some w -> (w, None)
        | None ->
          let rec walk ii =
            match greedy ii with Some s -> s | None -> walk (ii + 1)
          in
          let s = walk e.e_proved in
          ( s,
            Some
              (Printf.sprintf
                 "II %d not proven optimal: exact budget exhausted at II %d"
                 s.s_ii e.e_proved) ))
    with Out_of_effort ->
      let f = non_overlapped () in
      ( f,
        Some
          (Printf.sprintf
             "modulo scheduling effort budget exhausted at II=%d; degraded \
              to the non-overlapped schedule (II=%d)"
             !current f.s_ii) )
  end

let modulo_schedule ?cfg ?effort ?exact_effort (g : Graph.t) : schedule =
  fst (modulo_schedule_note ?cfg ?effort ?exact_effort g)

(* Kept only so the frozen perf harness (bench/perf) still compiles:
   its traced replica names the deleted exact-II pass's off mode. *)
type exact_mode = Exact_off

(** Number of hardware registers implied by a schedule: one per register
    source / move node, plus, for every produced value, the number of
    II-wide windows its lifetime spans (modulo variable expansion: a
    value alive for more than one II needs a new register per in-flight
    iteration). *)
let register_estimate (g : Graph.t) (s : schedule) : int =
  let n = Graph.node_count g in
  let regs = ref 0 in
  for i = 0 to n - 1 do
    let kind = (Graph.node g i).kind in
    let produced_at = s.s_times.(i) + Graph.delay g i in
    let last_use =
      List.fold_left
        (fun m (d, dist) -> max m (s.s_times.(d) + (s.s_ii * dist)))
        produced_at g.Graph.succs.(i)
    in
    let lifetime = last_use - produced_at in
    (* zero-lifetime values are consumed combinationally (no register);
       stored values need floor(lifetime/II) + 1 — floor plus one, not
       ceiling: when the lifetime is an exact multiple of the II, the
       next iteration's result arrives on the very edge of the last
       read and a further buffer register is required (found by the
       cycle-accurate simulator's hazard check) *)
    let windows = if lifetime = 0 then 0 else (lifetime / s.s_ii) + 1 in
    (match kind with
    | Opinfo.Op_move ->
      (* a move IS a register write: at least one register, more when
         the value stays live across several initiation windows *)
      regs := !regs + max 1 windows
    | Opinfo.Op_const -> ()
    | _ ->
      (* a computed value needs one register per II-window it stays
         live; a value consumed the cycle it appears needs none *)
      if g.Graph.succs.(i) <> [] then regs := !regs + windows)
  done;
  !regs
