(* The one II search: branch-and-bound certification of the optimal
   initiation interval, the shared schedule-validity checker every
   scheduling backend must satisfy, a hand-built nest where the greedy
   placement alone would settle above the optimum, the budget
   degradation paths, and an independent brute-force oracle that
   checks every certified optimum without sharing code with the
   search. *)

open Uas_ir
module D = Uas_dfg
module B = Builder
module Sd = D.Sched

let build body = fst (D.Build.build ~inner_index:"j" body)

let check_ok name g s =
  match Sd.check_schedule g s with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "%s: %s" name (String.concat "; " msgs)

let check_rejected name g s =
  match Sd.check_schedule g s with
  | Ok () -> Alcotest.failf "%s: invalid schedule accepted" name
  | Error _ -> ()

(* the classic a -> b -> a recurrence: RecMII 4, every edge of the
   cycle tight at II 4 *)
let fg_body =
  [ B.("b" <-- band (v "a" + int 3) (int 255));
    B.("a" <-- bxor (v "b" + v "b") (int 21)) ]

(* k loads + 1 store on two ports: ResMII = ceil((k+1)/2) *)
let mem_heavy_body k =
  List.init k (fun t ->
      B.(Printf.sprintf "x%d" t <-- load "a" (v "j" + int t)))
  @ [ B.store "o" (B.v "j")
        (List.fold_left
           (fun acc t -> B.(acc + v (Printf.sprintf "x%d" t)))
           (B.int 0)
           (List.init k (fun t -> t))) ]

(* k jammed copies of a distance-1 memory recurrence (w[j] from
   w[j-1]): RecMII 5 per copy, 2k memory ops.  At k = 5 the ports are
   exactly saturated at the recurrence bound: the greedy placement
   fails at the lower bound 5 (walking upward it would settle at 6),
   and the exact search certifies a witness at 5. *)
let jam_rec k =
  List.concat
    (List.init k (fun c ->
         let x = Printf.sprintf "x%d" c in
         let w = Printf.sprintf "w%d" c in
         [ B.(x <-- load w (v "j" - int 1));
           B.(x <-- band (v x + int 3) (int 255));
           B.store w (B.v "j") (B.v x) ]))

let bodies =
  [ ("fg", fg_body);
    ("mem-heavy 4", mem_heavy_body 4);
    ("mem-heavy 9", mem_heavy_body 9);
    ("jam-rec 3", jam_rec 3);
    ("jam-rec 5", jam_rec 5) ]

(* --- the validity checker accepts what the backends produce --- *)

let test_check_accepts_backends () =
  List.iter
    (fun (name, body) ->
      let g = build body in
      check_ok (name ^ " list") g (Sd.list_schedule g);
      check_ok (name ^ " modulo") g (Sd.modulo_schedule g))
    bodies

(* --- the search returns the certified optimum --- *)

let test_exact_certifies () =
  List.iter
    (fun (name, body) ->
      let g = build body in
      let h = Sd.modulo_schedule g in
      let e = Sd.optimal_schedule g in
      if e.Sd.e_status <> Sd.Exact_optimal then
        Alcotest.failf "%s: not certified" name;
      match e.Sd.e_schedule with
      | None -> Alcotest.failf "%s: certified but no witness" name
      | Some w ->
        check_ok (name ^ " exact witness") g w;
        let lb = Sd.min_ii Sd.default_config g in
        Alcotest.(check bool)
          (name ^ " min_ii <= optimal") true
          (lb <= w.Sd.s_ii);
        Alcotest.(check int)
          (name ^ " search II = optimal") w.Sd.s_ii h.Sd.s_ii;
        Alcotest.(check int)
          (name ^ " proved = optimal") w.Sd.s_ii e.Sd.e_proved)
    bodies

let test_hand_built_loose () =
  (* the jam-rec 5 nest: the greedy placement fails at the lower bound,
     and the search still returns the certified optimum there *)
  let g = build (jam_rec 5) in
  Alcotest.(check int) "lower bound" 5 (Sd.min_ii Sd.default_config g);
  let s, note = Sd.modulo_schedule_note g in
  Alcotest.(check int) "search II" 5 s.Sd.s_ii;
  Alcotest.(check (option string)) "no note" None note;
  check_ok "optimal schedule" g s

(* --- mutation: perturbing a valid schedule is caught --- *)

let test_mutation_caught () =
  (* mem-heavy 9: 10 memory ops at II 5 fill every reservation slot,
     so moving any memory op by one cycle lands in a full slot (or
     breaks a dependence / goes negative) — the checker must object *)
  let g = build (mem_heavy_body 9) in
  let s = Sd.modulo_schedule g in
  Alcotest.(check int) "port-saturated II" 5 s.Sd.s_ii;
  check_ok "baseline valid" g s;
  Array.iteri
    (fun i _ ->
      if Uas_ir.Opinfo.uses_memory_port (D.Graph.node g i).D.Graph.kind then
        List.iter
          (fun delta ->
            let times = Array.copy s.Sd.s_times in
            times.(i) <- times.(i) + delta;
            let mutated =
              { s with
                Sd.s_times = times;
                s_length = Array.fold_left max 0 times + 1 }
            in
            check_rejected
              (Printf.sprintf "node %d moved by %+d" i delta)
              g mutated)
          [ -1; 1 ])
    s.Sd.s_times

let test_tight_cycle_mutation_caught () =
  (* fg: the recurrence cycle has zero slack at II 4, so moving any
     real operator by one cycle violates a dependence *)
  let g = build fg_body in
  let s = Sd.modulo_schedule g in
  Alcotest.(check int) "tight II" 4 s.Sd.s_ii;
  Array.iteri
    (fun i n ->
      ignore n;
      match (D.Graph.node g i).D.Graph.kind with
      | Uas_ir.Opinfo.Op_binop _ ->
        List.iter
          (fun delta ->
            let times = Array.copy s.Sd.s_times in
            times.(i) <- times.(i) + delta;
            let mutated =
              { s with
                Sd.s_times = times;
                s_length = Array.fold_left max 0 times + 1 }
            in
            check_rejected
              (Printf.sprintf "cycle node %d moved by %+d" i delta)
              g mutated)
          [ -1; 1 ]
      | _ -> ())
    s.Sd.s_times

let test_negative_time_caught () =
  let g = build (mem_heavy_body 4) in
  let s = Sd.modulo_schedule g in
  let times = Array.copy s.Sd.s_times in
  times.(0) <- -1;
  check_rejected "negative issue time" g { s with Sd.s_times = times }

(* --- effort budgets degrade, deterministically and validly --- *)

let test_heuristic_effort_degrades () =
  (* the BENCH_sweep blowup, reduced: under a tiny relaxation budget
     the modulo scheduler must not spin — it degrades to the
     non-overlapped fallback (II = schedule length) with a note *)
  let g = build (jam_rec 5) in
  let sched, note = Sd.modulo_schedule_note ~effort:1 g in
  (match note with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a degradation note under effort 1");
  let l = Sd.list_schedule g in
  Alcotest.(check int) "fallback II = acyclic length" l.Sd.s_length
    sched.Sd.s_ii;
  check_ok "fallback still valid" g sched;
  (* with the default budget the same graph pipelines fine *)
  let _, note' = Sd.modulo_schedule_note g in
  Alcotest.(check bool) "no note at default effort" true (note' = None)

let test_exact_effort_degrades () =
  let g = build (jam_rec 5) in
  let e = Sd.optimal_schedule ~effort:1 g in
  Alcotest.(check bool) "unknown" true (e.Sd.e_status = Sd.Exact_unknown);
  Alcotest.(check bool) "budget flagged" true e.Sd.e_effort_exhausted;
  Alcotest.(check bool) "no schedule claimed" true (e.Sd.e_schedule = None);
  Alcotest.(check bool) "proved >= min_ii" true
    (e.Sd.e_proved >= e.Sd.e_min_ii)

(* The greedy placement fails at jam-rec 5's lower bound, so a tiny
   exact budget leaves the optimum unproven: the search walks upward
   from the smallest unrefuted II and says so in its note. *)
let test_not_proven_note () =
  let g = build (jam_rec 5) in
  let s, note = Sd.modulo_schedule_note ~exact_effort:10 g in
  check_ok "walked schedule" g s;
  Alcotest.(check (option string))
    "not-proven note"
    (Some
       (Printf.sprintf
          "II %d not proven optimal: exact budget exhausted at II 5" s.Sd.s_ii))
    note

(* --- the QCheck property: oracle invariants on random bodies --- *)

let gen_body st =
  let n_stmt = QCheck.Gen.int_range 2 10 st in
  List.init n_stmt (fun t ->
      let dst = Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st) in
      match QCheck.Gen.int_range 0 3 st with
      | 0 -> B.(dst <-- load "mem" (v "j" + int t))
      | 1 ->
        B.(dst
           <-- v (Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st)) + int t)
      | 2 ->
        B.(dst
           <-- band
                 (v (Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st)))
                 (int 255))
      | _ -> B.store "mem" B.(v "j" + int (Stdlib.( + ) 100 t)) (B.v dst))

let test_qcheck_exact_brackets =
  let arb =
    QCheck.make gen_body ~print:(fun b ->
        String.concat "\n" (List.map Pp.stmt_to_string b))
  in
  QCheck.Test.make
    ~name:"exact oracle brackets the heuristic (random bodies)" ~count:80 arb
    (fun body ->
      let g = build body in
      let h = Sd.modulo_schedule g in
      let valid s = Sd.check_schedule g s = Ok () in
      let lb = Sd.min_ii Sd.default_config g in
      let e = Sd.optimal_schedule g in
      valid h
      && valid (Sd.list_schedule g)
      && e.Sd.e_min_ii = lb
      &&
      match (e.Sd.e_status, e.Sd.e_schedule) with
      | Sd.Exact_optimal, Some w ->
        valid w && lb <= w.Sd.s_ii && w.Sd.s_ii = h.Sd.s_ii
        && e.Sd.e_proved = w.Sd.s_ii
      | _ -> false)

(* --- an independent II oracle ---

   Written from the constraint system of a modulo schedule (Roorda's
   SMT formulation, arxiv 2601.21842), sharing nothing with [Sched]
   but [Graph]: write every issue time as t = r + II*k with residue
   r in [0, II).  For a residue vector that puts at most [mem_ports]
   memory operations in each residue, the dependences
   t(dst) >= t(src) + delay(src) - II*d become the integer difference
   system k(dst) - k(src) >= ceil((delay(src) - II*d + r(src) - r(dst)) / II),
   solvable iff it has no positive cycle.  Enumerating every residue
   vector makes the verdict exact, with no horizon to justify. *)

let ceil_div a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* Longest-path Bellman-Ford from a virtual zero source: a change in
   round n+1 means a positive cycle. *)
let difference_system_solvable g ~ii r =
  let n = D.Graph.node_count g in
  let k = Array.make n 0 in
  let relax () =
    List.fold_left
      (fun changed (e : D.Graph.edge) ->
        let w =
          ceil_div
            (D.Graph.delay g e.e_src - (ii * e.e_distance) + r.(e.e_src)
            - r.(e.e_dst))
            ii
        in
        if k.(e.e_src) + w > k.(e.e_dst) then begin
          k.(e.e_dst) <- k.(e.e_src) + w;
          true
        end
        else changed)
      false g.D.Graph.edges
  in
  let rec settles round =
    if relax () then round <= n && settles (round + 1) else true
  in
  settles 1

let oracle_feasible ~mem_ports g ~ii =
  let n = D.Graph.node_count g in
  let is_mem i = Opinfo.uses_memory_port (D.Graph.node g i).D.Graph.kind in
  let r = Array.make n 0 in
  let load = Array.make ii 0 in
  let rec assign i =
    if i = n then difference_system_solvable g ~ii r
    else
      List.exists
        (fun v ->
          if is_mem i && load.(v) >= mem_ports then false
          else begin
            r.(i) <- v;
            if is_mem i then load.(v) <- load.(v) + 1;
            let ok = assign (i + 1) in
            if is_mem i then load.(v) <- load.(v) - 1;
            ok
          end)
        (List.init ii Fun.id)
  in
  assign 0

(* Random graphs of at most 6 nodes, mostly memory operations at
   their default delays: distance-0 edges only from lower to higher
   ids (acyclic within an iteration), one to six loop-carried edges of
   distance 1 or 2 anywhere, and one memory port (two in a third of
   the cases).  Dense enough that a couple in a hundred need an II
   above the [min_ii] bound. *)
let gen_graph =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let* kinds =
    list_repeat n
      (frequency
         [ (6, return Opinfo.Op_load);
           (2, return Opinfo.Op_store);
           (1, return (Opinfo.Op_binop Types.Add));
           (1, return (Opinfo.Op_binop Types.Mul)) ])
  in
  let* forward = list_repeat (n * n) (float_bound_exclusive 1.0) in
  let* carried =
    list_size (int_range 1 6)
      (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 2))
  in
  let* mem_ports = frequency [ (2, return 1); (1, return 2) ] in
  let forward =
    List.concat
      (List.mapi
         (fun i p ->
           let a = i / n and b = i mod n in
           if a < b && p < 0.8 then [ (a, b, 0) ] else [])
         forward)
  in
  let nodes =
    List.mapi
      (fun id kind -> { D.Graph.id; kind; label = Printf.sprintf "n%d" id })
      kinds
  in
  let edges =
    List.sort_uniq compare (forward @ carried)
    |> List.map (fun (e_src, e_dst, e_distance) ->
           { D.Graph.e_src; e_dst; e_distance })
  in
  return (D.Graph.create nodes edges, mem_ports)

(* A pinned-seed property: on every generated graph, both the exact
   search's certified II and the one II search's result are feasible
   (when at most 4) and every smaller II is infeasible, by the oracle.
   At least 10 cases must have their optimum above [min_ii], so the
   refutation path really runs. *)
let test_oracle_confirms () =
  let refuted = ref 0 in
  let prop (g, mem_ports) =
    let cfg = { Sd.mem_ports } in
    let lower = Sd.min_ii cfg g in
    let e = Sd.optimal_schedule ~cfg g in
    let s = Sd.modulo_schedule ~cfg g in
    let feasible ii = oracle_feasible ~mem_ports g ~ii in
    let optimal ii =
      (ii > 4 || feasible ii)
      && List.for_all
           (fun i -> not (feasible i))
           (List.init (min (ii - 1) 4) succ)
    in
    match e.Sd.e_schedule with
    | None -> false
    | Some w ->
      if w.Sd.s_ii > lower && lower <= 4 then incr refuted;
      optimal w.Sd.s_ii && optimal s.Sd.s_ii
  in
  let print (g, mem_ports) = Fmt.str "ports %d@.%a" mem_ports D.Graph.pp g in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 421 |])
    (QCheck.Test.make ~name:"oracle" ~count:1000 (QCheck.make ~print gen_graph)
       prop);
  Alcotest.(check bool)
    (Printf.sprintf "%d cases with the optimum above min_ii (need 10)" !refuted)
    true (!refuted >= 10)

(* --- the II search's previous code, kept as oracles ---

   [recurrence_mii] binary-searched the whole graph, and [try_modulo]
   rebuilt its modulo rows as lists on every bump, with a fresh queue
   per re-solve.  The per-component RecMII and the allocation-free
   placement must agree with them exactly: the same bound, the same
   issue times, and the same edge relaxations spent. *)

let old_recurrence_mii (g : D.Graph.t) : int =
  let n = D.Graph.node_count g in
  if n = 0 then 0
  else begin
    let has_positive_cycle ii =
      let dist = Array.make n 0 in
      let pass () =
        List.fold_left
          (fun changed (e : D.Graph.edge) ->
            let w = D.Graph.delay g e.e_src - (ii * e.e_distance) in
            if dist.(e.e_src) + w > dist.(e.e_dst) then begin
              dist.(e.e_dst) <- dist.(e.e_src) + w;
              true
            end
            else changed)
          false g.D.Graph.edges
      in
      let rec go k = if not (pass ()) then false else k > n || go (k + 1) in
      go 0
    in
    let max_ii =
      Array.fold_left
        (fun a (nd : D.Graph.node) -> a + max 1 (g.D.Graph.delay_of nd.kind))
        1 g.D.Graph.nodes
    in
    if not (has_positive_cycle 0) then 0
    else begin
      let lo = ref 1 and hi = ref max_ii in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if has_positive_cycle mid then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  end

exception Old_blocked

let old_relax_up ~effort ~max_rounds (adj : (int * int) list array)
    (t : int array) (seeds : int list) : bool =
  let q = Queue.create () in
  let inq = Array.make (Array.length t) false in
  List.iter
    (fun i ->
      if not inq.(i) then begin
        Queue.add i q;
        inq.(i) <- true
      end)
    seeds;
  Queue.add (-1) q;
  let rounds = ref 0 in
  try
    while Queue.length q > 1 do
      let i = Queue.pop q in
      if i = -1 then begin
        incr rounds;
        if !rounds > max_rounds then raise Old_blocked;
        Queue.add (-1) q
      end
      else begin
        inq.(i) <- false;
        let ti = t.(i) in
        List.iter
          (fun (j, w) ->
            decr effort;
            if !effort < 0 then raise Sd.Out_of_effort;
            if ti + w > t.(j) then begin
              t.(j) <- ti + w;
              if not inq.(j) then begin
                Queue.add j q;
                inq.(j) <- true
              end
            end)
          adj.(i)
      end
    done;
    true
  with Old_blocked -> false

let old_try_modulo (cfg : Sd.config) (g : D.Graph.t) ~effort ~ii :
    int array option =
  let n = D.Graph.node_count g in
  let is_mem i = Opinfo.uses_memory_port (D.Graph.node g i).D.Graph.kind in
  let mem_nodes = List.filter is_mem (List.init n Fun.id) in
  let adj = Array.make n [] in
  List.iter
    (fun (e : D.Graph.edge) ->
      let w = D.Graph.delay g e.e_src - (ii * e.e_distance) in
      adj.(e.e_src) <- (e.e_dst, w) :: adj.(e.e_src))
    g.D.Graph.edges;
  let t = Array.make n 0 in
  let max_rounds = n + 1 in
  let budget = ref (64 + (List.length mem_nodes * ii * 4)) in
  let feasible t =
    List.for_all
      (fun (e : D.Graph.edge) ->
        t.(e.e_dst)
        >= t.(e.e_src) + D.Graph.delay g e.e_src - (ii * e.e_distance))
      g.D.Graph.edges
  in
  if not (old_relax_up ~effort ~max_rounds adj t (List.init n Fun.id)) then None
  else begin
    let rec solve () =
      let slots = Array.make ii [] in
      List.iter
        (fun i ->
          let s = ((t.(i) mod ii) + ii) mod ii in
          slots.(s) <- i :: slots.(s))
        mem_nodes;
      let offender = ref None in
      Array.iter
        (fun nodes ->
          if List.length nodes > cfg.Sd.mem_ports then begin
            let latest =
              List.fold_left
                (fun best i ->
                  match best with
                  | None -> Some i
                  | Some b -> if t.(i) > t.(b) then Some i else best)
                None nodes
            in
            match (!offender, latest) with
            | None, Some i -> offender := Some i
            | _ -> ()
          end)
        slots;
      match !offender with
      | None -> Some t
      | Some i ->
        decr budget;
        if !budget <= 0 then None
        else begin
          t.(i) <- t.(i) + 1;
          if old_relax_up ~effort ~max_rounds adj t [ i ] then solve ()
          else None
        end
    in
    match solve () with
    | Some t when feasible t -> Some t
    | Some _ | None -> None
  end

(* One placement at [ii]: its issue times ([None] when it gives up,
   and no result when the effort runs out) and the effort left over. *)
let placement place cfg g ~ii =
  let effort = ref 5_000_000 in
  let r =
    match place cfg g ~effort ~ii with
    | r -> Some r
    | exception Sd.Out_of_effort -> None
  in
  (r, !effort)

(* Both placements at [ii] with the same effort: the issue times (or
   [None]) and the effort left over must match. *)
let placements_agree cfg g ~ii =
  placement Sd.try_modulo cfg g ~ii = placement old_try_modulo cfg g ~ii

(* Random DFGs from small parts.  A part has 1–8 nodes of mixed delays
   (loads 2, stores 1, adds 1, multiplies 2, divides 8, moves and
   constants 0), distance-0 edges from lower to higher ids, and carried
   edges of distance 1–3 anywhere, self-loops included; one part in
   eight also gets a distance-0 back edge, a cycle of distance 0 (of
   delay 0 when it runs through moves and constants only).  A graph is
   one part, 2–6 disjoint copies of one part (an unroll-and-jam body),
   or 2–4 different parts joined by a few edges (several components). *)
let gen_part =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* kinds =
    list_repeat n
      (frequency
         [ (4, return Opinfo.Op_load);
           (2, return Opinfo.Op_store);
           (3, return (Opinfo.Op_binop Types.Add));
           (1, return (Opinfo.Op_binop Types.Mul));
           (1, return (Opinfo.Op_binop Types.Div));
           (2, return Opinfo.Op_move);
           (1, return Opinfo.Op_const) ])
  in
  let* forward = list_repeat (n * n) (float_bound_exclusive 1.0) in
  let* carried =
    list_size (int_range 0 4)
      (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 3))
  in
  let* back =
    frequency
      [ (7, return None);
        (1, map Option.some (pair (int_bound (n - 1)) (int_bound (n - 1)))) ]
  in
  let forward =
    List.concat
      (List.mapi
         (fun i p ->
           let a = i / n and b = i mod n in
           if a < b && p < 0.4 then [ (a, b, 0) ] else [])
         forward)
  in
  let back =
    match back with
    | Some (a, b) when a < b -> [ (b, a, 0) ]
    | Some _ | None -> []
  in
  return (kinds, forward @ carried @ back)

let gen_dfg =
  let open QCheck.Gen in
  let shift k = List.map (fun (a, b, d) -> (a + k, b + k, d)) in
  let* parts =
    frequency
      [ (2, map (fun p -> [ p ]) gen_part);
        (2, let* p = gen_part in
            let* copies = int_range 2 6 in
            return (List.init copies (fun _ -> p)));
        (2, list_size (int_range 2 4) gen_part) ]
  in
  let kinds, edges, n =
    List.fold_left
      (fun (ks, es, base) (k, e) ->
        (ks @ k, es @ shift base e, base + List.length k))
      ([], [], 0) parts
  in
  let* links =
    list_size (int_range 0 3)
      (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 0 2))
  in
  (* a link of distance 0 only runs forward, so it closes no cycle *)
  let links = List.filter (fun (a, b, d) -> d > 0 || a < b) links in
  let nodes =
    List.mapi
      (fun id kind -> { D.Graph.id; kind; label = Printf.sprintf "n%d" id })
      kinds
  in
  let edges =
    List.sort_uniq compare (edges @ links)
    |> List.map (fun (e_src, e_dst, e_distance) ->
           { D.Graph.e_src; e_dst; e_distance })
  in
  return (D.Graph.create nodes edges)

let arb_dfg = QCheck.make ~print:(Fmt.str "%a" D.Graph.pp) gen_dfg

let test_qcheck_recurrence_mii_oracle =
  QCheck.Test.make ~name:"RecMII per component = whole-graph search"
    ~count:2000 arb_dfg (fun g ->
      D.Graph.recurrence_mii g = old_recurrence_mii g)

let test_qcheck_try_modulo_oracle =
  QCheck.Test.make ~name:"greedy placement = list-based placement"
    ~count:1000
    QCheck.(triple arb_dfg (int_range 1 2) (int_range 0 3))
    (fun (g, mem_ports, above) ->
      let cfg = { Sd.mem_ports } in
      D.Graph.node_count g = 0
      || placements_agree cfg g ~ii:(Sd.min_ii cfg g + above))

(* Many-bump placements: unroll-and-jam bodies of 8–16 disjoint copies
   of a memory-heavy part, on one or two ports.  A part is a ring of
   2–6 nodes, mostly loads and stores: a distance-0 chain closed by a
   distance-1 edge, plus a few more edges.  The copy count is picked
   so that the memory ops fill the ports at the part's recurrence bound
   where the 8–16 range allows it: the rigid copies then make the
   greedy spend its whole bump budget on many of them, so the row lists
   and the re-solve's log of moved memory ops do real work.  At
   [min_ii] and above there is no positive cycle, so a placement that
   returns [None] with effort left has run out of bumps. *)
let gen_mem_part =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let* kinds =
    list_repeat n
      (frequency
         [ (4, return Opinfo.Op_load);
           (3, return Opinfo.Op_store);
           (2, return (Opinfo.Op_binop Types.Add));
           (1, return (Opinfo.Op_binop Types.Mul));
           (1, return (Opinfo.Op_binop Types.Div)) ])
  in
  let* extra =
    list_size (int_range 0 2)
      (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 0 2))
  in
  let ring =
    List.init n (fun a -> if a + 1 < n then (a, a + 1, 0) else (a, 0, 1))
  in
  (* an extra edge of distance 0 only runs forward *)
  let extra = List.filter (fun (a, b, d) -> d > 0 || a < b) extra in
  return (kinds, ring @ extra)

let jam_graph kinds edges copies =
  let n = List.length kinds in
  let nodes =
    List.concat (List.init copies (fun _ -> kinds))
    |> List.mapi (fun id kind ->
           { D.Graph.id; kind; label = Printf.sprintf "n%d" id })
  in
  let edges =
    List.concat
      (List.init copies (fun c ->
           List.map (fun (a, b, d) -> ((c * n) + a, (c * n) + b, d)) edges))
    |> List.sort_uniq compare
    |> List.map (fun (e_src, e_dst, e_distance) ->
           { D.Graph.e_src; e_dst; e_distance })
  in
  D.Graph.create nodes edges

let gen_jam =
  let open QCheck.Gen in
  let* kinds, edges = gen_mem_part in
  let* mem_ports = int_range 1 2 in
  let part = jam_graph kinds edges 1 in
  let rec_mii = D.Graph.recurrence_mii part in
  let mems = D.Graph.memory_op_count part in
  (* the copy counts whose ResMII comes nearest the recurrence bound *)
  let gap c = abs ((((c * mems) + mem_ports - 1) / mem_ports) - rec_mii) in
  let counts = List.init 9 (( + ) 8) in
  let best = List.fold_left (fun b c -> min b (gap c)) max_int counts in
  let* copies = oneofl (List.filter (fun c -> gap c = best) counts) in
  let* above = frequency [ (3, return 0); (1, int_range 1 2) ] in
  return (jam_graph kinds edges copies, mem_ports, above)

let test_many_bump_oracle () =
  let exhausted = ref 0 in
  let prop (g, mem_ports, above) =
    let cfg = { Sd.mem_ports } in
    let ii = Sd.min_ii cfg g + above in
    let ((r, left) as placed) = placement Sd.try_modulo cfg g ~ii in
    if r = Some None && left > 0 then incr exhausted;
    placed = placement old_try_modulo cfg g ~ii
  in
  let print (g, mem_ports, above) =
    Fmt.str "ports %d, min_ii + %d@.%a" mem_ports above D.Graph.pp g
  in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 421 |])
    (QCheck.Test.make ~name:"many-bump placements" ~count:300
       (QCheck.make ~print gen_jam) prop);
  Alcotest.(check bool)
    (Printf.sprintf "%d placements ran out of bumps (need 1)" !exhausted)
    true (!exhausted > 0)

(* Every DFG of Table 6.2 (the 50 Registry.all x paper_versions
   cells): the same RecMII, and the same placement at every II from
   [min_ii] up to the one the scheduler settles on. *)
let test_table_6_2_oracles () =
  let module N = Uas_core.Nimble in
  let module R = Uas_bench_suite.Registry in
  let cfg = Uas_hw.Datapath.(sched_config default) in
  let cells = ref 0 in
  List.iter
    (fun (b : R.benchmark) ->
      List.iter
        (fun v ->
          let msg = b.R.b_name ^ "/" ^ N.version_name v in
          match
            N.run_version_cu b.R.b_program ~outer_index:b.R.b_outer_index
              ~inner_index:b.R.b_inner_index v
          with
          | Error d ->
            Alcotest.failf "%s did not build: %s" msg
              (Uas_pass.Diag.to_string d)
          | Ok (cu, _, _) -> (
            match (Uas_pass.Cu.dfg cu, Uas_pass.Cu.schedule cu) with
            | Some d, Some s ->
              incr cells;
              let g = d.D.Build.d_graph in
              Alcotest.(check int) (msg ^ " RecMII") (old_recurrence_mii g)
                (D.Graph.recurrence_mii g);
              for ii = Sd.min_ii cfg g to max (Sd.min_ii cfg g) s.Sd.s_ii do
                if not (placements_agree cfg g ~ii) then
                  Alcotest.failf "%s: placements differ at II %d" msg ii
              done
            | _ -> Alcotest.failf "%s: no DFG or schedule on the unit" msg))
        N.paper_versions)
    (R.all ());
  Alcotest.(check int) "cells compared" 50 !cells

let suite =
  [ Alcotest.test_case "checker accepts all backends" `Quick
      test_check_accepts_backends;
    Alcotest.test_case "exact certifies known bodies" `Quick
      test_exact_certifies;
    Alcotest.test_case "hand-built loose nest" `Quick test_hand_built_loose;
    Alcotest.test_case "mutation caught (ports)" `Quick test_mutation_caught;
    Alcotest.test_case "mutation caught (tight cycle)" `Quick
      test_tight_cycle_mutation_caught;
    Alcotest.test_case "negative time caught" `Quick test_negative_time_caught;
    Alcotest.test_case "heuristic effort degrades" `Quick
      test_heuristic_effort_degrades;
    Alcotest.test_case "exact effort degrades" `Quick
      test_exact_effort_degrades;
    Alcotest.test_case "exact budget exhausted: not proven note" `Quick
      test_not_proven_note;
    QCheck_alcotest.to_alcotest test_qcheck_exact_brackets;
    Alcotest.test_case "independent oracle confirms every II" `Quick
      test_oracle_confirms;
    QCheck_alcotest.to_alcotest test_qcheck_recurrence_mii_oracle;
    QCheck_alcotest.to_alcotest test_qcheck_try_modulo_oracle;
    Alcotest.test_case "Table 6.2 DFGs: RecMII and placements match" `Slow
      test_table_6_2_oracles;
    Alcotest.test_case "many-bump placements = list-based placement" `Quick
      test_many_bump_oracle ]
