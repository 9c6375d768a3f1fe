(* The cycle-accurate datapath simulator: overlapped execution of
   modulo-scheduled kernels with bounded registers must reproduce the
   sequential results and hit the scheduled throughput. *)

open Uas_ir
module S = Uas_bench_suite
module Sim = Uas_hw.Pipeline_sim
module Build = Uas_dfg.Build
module Sched = Uas_dfg.Sched

let no_arrays () : (string, Types.value array) Hashtbl.t = Hashtbl.create 4
let no_roms () : (string, int array) Hashtbl.t = Hashtbl.create 4

let env_of bindings name =
  match List.assoc_opt name bindings with
  | Some v -> v
  | None -> Types.VInt 0

(* --- the f/g kernel: recurrence across iterations --- *)

let test_fg_kernel () =
  let p = Helpers.fg_loop ~m:4 ~n:16 in
  let nest = Helpers.nest_of p "i" in
  let detail = Build.build_detailed ~inner_index:"j" nest.inner_body in
  let schedule = Sched.modulo_schedule detail.Build.d_graph in
  let a0 = 77 in
  let r =
    Sim.run ~detail ~schedule ~iterations:16
      ~env:(env_of [ ("a", Types.VInt a0); ("j", Types.VInt 0) ])
      ~arrays:(no_arrays ()) ~roms:(no_roms ()) ~index:"j" ()
  in
  (* reference: the host model of f/g *)
  let expected = (S.Simple.fg_reference ~n:16 [| a0 |]).(0) in
  Alcotest.(check bool) "a matches sequential" true
    (List.assoc "a" r.Sim.sim_live_out = Types.VInt expected);
  (* throughput: last issue at (N-1)*II + max t, so the makespan is
     bounded by N*II + schedule length *)
  Alcotest.(check bool) "pipelined makespan" true
    (r.Sim.sim_cycles
    <= (16 * schedule.Sched.s_ii) + schedule.Sched.s_length + 1)

(* --- skipjack-hw: ROM lookups, 32 rounds, known answer --- *)

let test_skipjack_kernel () =
  let key = S.Skipjack.kat_key in
  let p = S.Skipjack.skipjack_hw ~m:1 ~key in
  let nest = Helpers.nest_of p "i" in
  let detail = Build.build_detailed ~inner_index:"j" nest.inner_body in
  let schedule = Sched.modulo_schedule detail.Build.d_graph in
  let roms = no_roms () in
  Hashtbl.replace roms "ftable" S.Skipjack.f_table;
  Hashtbl.replace roms "cv" key;
  let w = S.Skipjack.kat_plaintext_words in
  let r =
    Sim.run ~detail ~schedule ~iterations:32
      ~env:
        (env_of
           [ ("w1", Types.VInt w.(0)); ("w2", Types.VInt w.(1));
             ("w3", Types.VInt w.(2)); ("w4", Types.VInt w.(3));
             ("j", Types.VInt 0) ])
      ~arrays:(no_arrays ()) ~roms ~index:"j" ()
  in
  let out name = List.assoc name r.Sim.sim_live_out in
  let c = S.Skipjack.kat_ciphertext_words in
  Alcotest.(check bool) "official vector through the pipeline" true
    (out "w1" = Types.VInt c.(0)
    && out "w2" = Types.VInt c.(1)
    && out "w3" = Types.VInt c.(2)
    && out "w4" = Types.VInt c.(3))

(* --- des-hw: deeper kernel, 16 rounds against the host core --- *)

let test_des_kernel () =
  let key64 = 0x0123456789ABCDEFL in
  let p = S.Des.des_hw ~m:1 ~key64 in
  let nest = Helpers.nest_of p "i" in
  let detail = Build.build_detailed ~inner_index:"j" nest.inner_body in
  let schedule = Sched.modulo_schedule detail.Build.d_graph in
  let roms = no_roms () in
  Hashtbl.replace roms "spbox" S.Des.spbox_flat;
  Hashtbl.replace roms "subkeys" (S.Des.key_schedule key64);
  let l0 = 0x01234567 and r0 = 0x89abcdef in
  let r =
    Sim.run ~detail ~schedule ~iterations:16
      ~env:(env_of [ ("l", Types.VInt l0); ("r", Types.VInt r0);
                     ("j", Types.VInt 0) ])
      ~arrays:(no_arrays ()) ~roms ~index:"j" ()
  in
  let r16, l16 =
    S.Des.encrypt_core ~subkeys:(S.Des.key_schedule key64) (l0, r0)
  in
  (* before the output swap, the loop's variables hold l=l16? no:
     after 16 rounds the variables are l = L16, r = R16 *)
  Alcotest.(check bool) "DES core through the pipeline" true
    (List.assoc "l" r.Sim.sim_live_out = Types.VInt l16
    && List.assoc "r" r.Sim.sim_live_out = Types.VInt r16)

(* --- memory traffic: loads/stores through the ports --- *)

let test_memory_kernel () =
  let p = Helpers.memory_loop ~m:1 ~n:12 in
  let nest = Helpers.nest_of p "i" in
  let detail = Build.build_detailed ~inner_index:"j" nest.inner_body in
  let schedule = Sched.modulo_schedule detail.Build.d_graph in
  let arrays = no_arrays () in
  let src = Array.init 12 (fun k -> Types.VInt ((k * 37) land 1023)) in
  let tab = Array.init 256 (fun k -> Types.VInt ((k * k) land 4095)) in
  Hashtbl.replace arrays "src" (Array.copy src);
  Hashtbl.replace arrays "tab" (Array.copy tab);
  let r =
    Sim.run ~detail ~schedule ~iterations:12
      ~env:(env_of [ ("acc", Types.VInt 0); ("i", Types.VInt 0);
                     ("j", Types.VInt 0) ])
      ~arrays ~roms:(no_roms ()) ~index:"j" ()
  in
  (* reference via the interpreter on the same single-block program *)
  let w =
    Interp.workload
      ~arrays:[ ("src", src); ("tab", tab) ]
      ()
  in
  let expected =
    (List.assoc "dst" (Interp.run p w).Interp.outputs).(0)
  in
  Alcotest.(check bool) "acc matches the interpreter" true
    (List.assoc "acc" r.Sim.sim_live_out = expected);
  Alcotest.(check bool) "port pressure within budget" true
    (r.Sim.sim_port_pressure <= 2.0 +. 1e-9)

(* --- the squashed kernel also simulates correctly --- *)

let test_squashed_kernel () =
  (* squash fg by 4, then run its steady-state body (slices + rotation)
     through the pipeline simulator from a deterministic scalar state,
     and compare every live-out scalar with the interpreter running the
     same body the same number of times *)
  let p = Helpers.fg_loop ~m:4 ~n:8 in
  let nest = Helpers.nest_of p "i" in
  let out = Helpers.squash p nest ~ds:4 in
  let body = out.Uas_transform.Squash.new_inner_body in
  let idx = out.Uas_transform.Squash.new_inner_index in
  let detail = Build.build_detailed ~inner_index:idx body in
  let schedule = Sched.modulo_schedule detail.Build.d_graph in
  let iters = 10 in
  let scalars =
    Stmt.Sset.elements (Stmt.Sset.remove idx (Stmt.scalars body))
  in
  let init name =
    (* deterministic, distinct entry values *)
    Types.VInt ((Hashtbl.hash name land 255) + 1)
  in
  let r =
    Sim.run ~detail ~schedule ~iterations:iters
      ~env:(fun n -> if String.equal n idx then Types.VInt 0 else init n)
      ~arrays:(no_arrays ()) ~roms:(no_roms ()) ~index:idx ()
  in
  (* reference: the interpreter on a program whose params carry the same
     entry values *)
  let q =
    Uas_ir.Builder.program "steady"
      ~params:(List.map (fun v -> (v, Types.Tint)) scalars)
      ~locals:[ (idx, Types.Tint) ]
      [ Stmt.For
          { index = idx; lo = Expr.Int 0; hi = Expr.Int iters; step = 1;
            body } ]
  in
  let w =
    Interp.workload ~scalars:(List.map (fun v -> (v, init v)) scalars) ()
  in
  let rr = Interp.run q w in
  List.iter
    (fun (base, value) ->
      match List.assoc_opt base rr.Interp.final_scalars with
      | Some expected ->
        if value <> expected then
          Alcotest.failf "scalar %s: pipeline %s, interpreter %s" base
            (Fmt.str "%a" Types.pp_value value)
            (Fmt.str "%a" Types.pp_value expected)
      | None -> ())
    r.Sim.sim_live_out

let test_qcheck_sim_matches_interp =
  (* random legal nests: the overlapped pipeline execution of the inner
     body equals the sequential interpreter on every live-out scalar,
     and never trips a register or port hazard *)
  QCheck.Test.make ~name:"pipeline sim = interpreter (random nests)" ~count:60
    Helpers.arbitrary_nest_program
    (fun p ->
      let nest = Helpers.nest_of p "i" in
      let body = nest.Uas_analysis.Loop_nest.inner_body in
      let detail = Build.build_detailed ~inner_index:"j" body in
      let schedule = Sched.modulo_schedule detail.Build.d_graph in
      let iters = 6 in
      let scalars =
        Stmt.Sset.elements (Stmt.Sset.remove "j" (Stmt.scalars body))
      in
      let init name = Types.VInt ((Hashtbl.hash name land 511) - 100) in
      let src = Array.init 64 (fun k -> Types.VInt ((k * 97) land 1023)) in
      let tab = Array.init 64 (fun k -> Types.VInt ((k * 41) land 255)) in
      let arrays : (string, Types.value array) Hashtbl.t = Hashtbl.create 4 in
      Hashtbl.replace arrays "src" (Array.copy src);
      Hashtbl.replace arrays "tab" (Array.copy tab);
      Hashtbl.replace arrays "dst" (Array.make 64 (Types.VInt 0));
      let r =
        Sim.run ~detail ~schedule ~iterations:iters
          ~env:(fun n -> if n = "j" then Types.VInt 0 else init n)
          ~arrays ~roms:(no_roms ()) ~index:"j" ()
      in
      (* sequential reference: params carry the same entry values; the
         body loops [iters] times over fresh arrays *)
      let q =
        Uas_ir.Builder.program "ref"
          ~params:(List.map (fun v -> (v, Types.Tint)) scalars)
          ~locals:[ ("j", Types.Tint) ]
          ~arrays:
            [ Uas_ir.Builder.input "src" 64; Uas_ir.Builder.input "tab" 64;
              Uas_ir.Builder.output "dst" 64 ]
          [ Stmt.For
              { index = "j"; lo = Expr.Int 0; hi = Expr.Int iters; step = 1;
                body } ]
      in
      let w =
        Interp.workload
          ~scalars:(List.map (fun v -> (v, init v)) scalars)
          ~arrays:[ ("src", src); ("tab", tab) ]
          ()
      in
      let rr = Interp.run q w in
      List.for_all
        (fun (base, value) ->
          match List.assoc_opt base rr.Interp.final_scalars with
          | Some expected -> value = expected
          | None -> true)
        r.Sim.sim_live_out
      && Hashtbl.fold
           (fun name data acc ->
             acc
             &&
             if String.equal name "dst" then
               data = List.assoc "dst" rr.Interp.outputs
             else true)
           arrays true)

(* --- hazards: each constructor, from a minimal crafted run ---

   Consistent schedules from [Sched.modulo_schedule] never trip these
   (the window/port math strictly covers every recorded reader), so
   each test plants the specific inconsistency the hazard guards
   against and asserts the exact exception payload. *)

let all_zero_schedule (g : Uas_dfg.Graph.t) : Sched.schedule =
  { Sched.s_ii = 1;
    s_times = Array.make (Uas_dfg.Graph.node_count g) 0;
    s_length = 1 }

(* An operator with delay 1 issues at cycle 0 and its consumer also
   issues at cycle 0 in the same iteration: the register is read before
   the pipelined result commits. *)
let test_hazard_value_not_ready () =
  let p = Helpers.fg_loop ~m:2 ~n:4 in
  let nest = Helpers.nest_of p "i" in
  let detail = Build.build_detailed ~inner_index:"j" nest.inner_body in
  let schedule = all_zero_schedule detail.Build.d_graph in
  match
    Sim.run ~detail ~schedule ~iterations:2
      ~env:(env_of [ ("a", Types.VInt 7); ("j", Types.VInt 0) ])
      ~arrays:(no_arrays ()) ~roms:(no_roms ()) ~index:"j" ()
  with
  | _ -> Alcotest.fail "zero schedule accepted a delayed producer"
  | exception Sim.Hazard (Sim.Value_not_ready { iteration; _ }) ->
    Alcotest.(check int) "fires on the first iteration" 0 iteration
  | exception Sim.Hazard h ->
    Alcotest.failf "wrong hazard: %a" Sim.pp_hazard h

(* Two loads forced into the same issue cycle on a one-port datapath:
   the second port claim of cycle 0 must abort. *)
let test_hazard_port_conflict () =
  let open Uas_ir in
  let module B = Builder in
  let p =
    B.program "two_loads"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("x", Types.Tint);
                ("y", Types.Tint); ("s", Types.Tint) ]
      ~arrays:[ B.input "u" 16; B.input "w" 16; B.output "dst" 1 ]
      [ B.for_ "i" ~hi:(B.int 1)
          [ B.("s" <-- int 0);
            B.for_ "j" ~hi:(B.int 8)
              [ B.("x" <-- load "u" (v "j"));
                B.("y" <-- load "w" (v "j"));
                B.("s" <-- bxor (v "s") (v "x" + v "y")) ];
            B.store "dst" (B.int 0) (B.v "s") ]
      ]
  in
  let nest = Helpers.nest_of p "i" in
  let detail = Build.build_detailed ~inner_index:"j" nest.inner_body in
  let schedule = all_zero_schedule detail.Build.d_graph in
  let arrays = no_arrays () in
  Hashtbl.replace arrays "u" (Array.make 16 (Types.VInt 1));
  Hashtbl.replace arrays "w" (Array.make 16 (Types.VInt 2));
  match
    Sim.run ~target:Uas_hw.Datapath.single_port ~detail ~schedule
      ~iterations:8
      ~env:(env_of [ ("s", Types.VInt 0); ("j", Types.VInt 0) ])
      ~arrays ~roms:(no_roms ()) ~index:"j" ()
  with
  | _ -> Alcotest.fail "two same-cycle loads accepted on one port"
  | exception Sim.Hazard (Sim.Port_conflict { cycle; used; ports }) ->
    Alcotest.(check int) "cycle" 0 cycle;
    Alcotest.(check int) "claims" 2 used;
    Alcotest.(check int) "budget" 1 ports
  | exception Sim.Hazard h ->
    Alcotest.failf "wrong hazard: %a" Sim.pp_hazard h

(* A register overwrite needs a reader the window sizing never saw: a
   hand-assembled graph whose edge list records a distance-2 carried
   use of node 0 that is missing from succs, so node 0 gets one window
   and iteration 2's write lands on the slot iteration 0 still needs. *)
let test_hazard_register_overwritten () =
  let open Uas_dfg in
  let module B = Uas_ir.Builder in
  let donor =
    Build.build_detailed ~inner_index:"j" [ B.("t" <-- int 1) ]
  in
  let nodes =
    [| { Graph.id = 0; kind = Uas_ir.Opinfo.Op_move; label = "p" };
       { Graph.id = 1; kind = Uas_ir.Opinfo.Op_move; label = "c" } |]
  in
  let g =
    { Graph.nodes;
      edges = [ { Graph.e_src = 0; e_dst = 1; e_distance = 2 } ];
      succs = [| []; [] |];
      preds = [| []; [] |] }
  in
  let detail =
    { Build.d_graph = g;
      d_ssa = donor.Build.d_ssa;
      d_sem = [| Build.Sreg "p"; Build.Sreg "c" |];
      d_live_out_nodes = [] }
  in
  let schedule = { Sched.s_ii = 1; s_times = [| 0; 0 |]; s_length = 1 } in
  match
    Sim.run ~detail ~schedule ~iterations:3
      ~env:(env_of [ ("p", Types.VInt 1); ("c", Types.VInt 2) ])
      ~arrays:(no_arrays ()) ~roms:(no_roms ()) ()
  with
  | _ -> Alcotest.fail "undersized register file accepted"
  | exception Sim.Hazard (Sim.Register_overwritten { node; iteration; reader })
    ->
    Alcotest.(check int) "clobbered producer" 0 node;
    Alcotest.(check int) "iteration still owed the value" 0 iteration;
    Alcotest.(check int) "reader" 1 reader
  | exception Sim.Hazard h ->
    Alcotest.failf "wrong hazard: %a" Sim.pp_hazard h

let suite =
  [ Alcotest.test_case "fg kernel pipeline" `Quick test_fg_kernel;
    Alcotest.test_case "skipjack kernel pipeline (KAT)" `Quick
      test_skipjack_kernel;
    Alcotest.test_case "DES kernel pipeline" `Quick test_des_kernel;
    Alcotest.test_case "memory kernel pipeline" `Quick test_memory_kernel;
    Alcotest.test_case "squashed kernel pipeline" `Quick
      test_squashed_kernel;
    Alcotest.test_case "hazard: value not ready" `Quick
      test_hazard_value_not_ready;
    Alcotest.test_case "hazard: port conflict" `Quick
      test_hazard_port_conflict;
    Alcotest.test_case "hazard: register overwritten" `Quick
      test_hazard_register_overwritten;
    QCheck_alcotest.to_alcotest test_qcheck_sim_matches_interp ]
