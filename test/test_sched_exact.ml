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
      test_oracle_confirms ]
