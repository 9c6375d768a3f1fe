(* Coverage for the smaller helpers: expansion naming, exit values,
   scheduling details, datapath accounting, float
   operators through the interpreter, and the DOT export. *)

open Uas_ir
module B = Builder
module T = Uas_transform

(* --- Expand --- *)

let test_expand_names () =
  Alcotest.(check string) "stage" "v@s3" (T.Expand.stage_copy "v" 3);
  Alcotest.(check string) "pre" "v@pre0" (T.Expand.pre_copy "v" 0);
  Alcotest.(check string) "post" "acc@post7" (T.Expand.post_copy "acc" 7);
  Alcotest.(check string) "rot" "x@rot" (T.Expand.rot_temp "x");
  Alcotest.(check string) "unroll" "x@u2" (T.Expand.unroll_copy "x" 2)

let test_expand_decl_types () =
  let p =
    B.program "t"
      ~locals:[ ("n", Types.Tint); ("f", Types.Tfloat) ]
      ~arrays:[ B.output "o" 1 ]
      [ B.store "o" (B.int 0) (B.v "n") ]
  in
  let decls =
    T.Expand.copy_decls p
      (Stmt.Sset.of_list [ "n"; "f" ])
      (fun v -> [ T.Expand.stage_copy v 0; T.Expand.stage_copy v 1 ])
  in
  Alcotest.(check int) "four decls" 4 (List.length decls);
  Alcotest.(check (option bool)) "float copy keeps its type" (Some true)
    (Option.map
       (fun t -> t = Types.Tfloat)
       (List.assoc_opt "f@s1" decls))

let test_expand_collision_rejected () =
  let p =
    B.program "t"
      ~locals:[ ("n", Types.Tint); ("n@s0", Types.Tint) ]
      ~arrays:[ B.output "o" 1 ]
      [ B.store "o" (B.int 0) (B.v "n") ]
  in
  match
    T.Expand.copy_decls p
      (Stmt.Sset.singleton "n")
      (fun v -> [ T.Expand.stage_copy v 0 ])
  with
  | exception Types.Ir_error _ -> ()
  | _ -> Alcotest.fail "expected a collision error"

let test_index_exit_value () =
  let check lo hi step expected =
    match T.Expand.index_exit_value ~lo:(B.int lo) ~hi:(B.int hi) ~step with
    | Expr.Int v -> Alcotest.(check int) "exit" expected v
    | e -> Alcotest.failf "expected a constant, got %s" (Pp.expr_to_string e)
  in
  check 0 10 1 10;
  check 0 10 3 12;
  check 2 11 3 11;
  check 5 5 1 5;
  check 7 3 2 7

(* --- scheduling odds and ends --- *)

let test_list_schedule_respects_ports () =
  (* 4 independent loads on a single-port machine serialize *)
  let body =
    List.init 4 (fun t ->
        B.(Printf.sprintf "x%d" t <-- load "a" (v "j" + int t)))
  in
  let g, _ = Uas_dfg.Build.build ~inner_index:"j" body in
  let s =
    Uas_dfg.Sched.list_schedule ~cfg:{ Uas_dfg.Sched.mem_ports = 1 } g
  in
  (* loads issue in distinct cycles *)
  let load_times =
    List.filteri
      (fun i _ ->
        Opinfo.uses_memory_port (Uas_dfg.Graph.node g i).Uas_dfg.Graph.kind)
      (Array.to_list s.Uas_dfg.Sched.s_times)
  in
  Alcotest.(check int) "distinct cycles" (List.length load_times)
    (List.length (List.sort_uniq compare load_times))

let test_empty_graph_schedule () =
  let g = Uas_dfg.Graph.create [] [] in
  let s = Uas_dfg.Sched.modulo_schedule g in
  Alcotest.(check int) "II 1" 1 s.Uas_dfg.Sched.s_ii

(* --- datapath accounting --- *)

let test_register_area_rounding () =
  let t = Uas_hw.Datapath.packed_registers in
  Alcotest.(check int) "0 regs" 0 (Uas_hw.Datapath.register_area t 0);
  Alcotest.(check int) "1 reg rounds up" 1 (Uas_hw.Datapath.register_area t 1);
  Alcotest.(check int) "4 regs fit one row" 1
    (Uas_hw.Datapath.register_area t 4);
  Alcotest.(check int) "5 regs need two" 2
    (Uas_hw.Datapath.register_area t 5)

(* --- float semantics through the interpreter --- *)

let test_float_ops () =
  let p =
    B.program "fl"
      ~locals:
        [ ("x", Types.Tfloat); ("y", Types.Tfloat); ("c", Types.Tint);
          ("n", Types.Tint) ]
      ~arrays:[ B.output ~ty:Types.Tfloat "o" 4; B.output "oi" 1 ]
      [ B.("x" <-- flt 1.5 *. flt 2.0);
        B.("y" <-- v "x" -. flt 0.75);
        B.("c" <-- Expr.Binop (Types.Fcmp_lt, B.v "y", B.v "x"));
        B.("n" <-- f2i (v "y" /. flt 0.5));
        B.store "o" (B.int 0) (B.v "x");
        B.store "o" (B.int 1) (B.v "y");
        B.store "o" (B.int 2) (B.i2f (B.v "c"));
        B.store "o" (B.int 3) (B.fneg (B.v "y"));
        B.store "oi" (B.int 0) (B.v "n") ]
  in
  let r = Interp.run p (Interp.workload ()) in
  let o = List.assoc "o" r.Interp.outputs in
  Alcotest.(check bool) "x" true (o.(0) = Types.VFloat 3.0);
  Alcotest.(check bool) "y" true (o.(1) = Types.VFloat 2.25);
  Alcotest.(check bool) "cmp" true (o.(2) = Types.VFloat 1.0);
  Alcotest.(check bool) "neg" true (o.(3) = Types.VFloat (-2.25));
  Alcotest.(check bool) "f2i" true
    ((List.assoc "oi" r.Interp.outputs).(0) = Types.VInt 4)

(* --- DOT export --- *)

let test_dot_export () =
  let g, _ =
    Uas_dfg.Build.build ~inner_index:"j"
      [ B.("x" <-- load "a" (v "j"));
        B.("y" <-- v "x" + v "y");
        B.store "b" (B.v "j") (B.v "y") ]
  in
  let dot = Uas_dfg.Dot.to_dot ~name:"t" g in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true
        (Astring_contains.contains ~sub:frag dot))
    [ "digraph"; "box3d"; "style=dashed"; "label=\"+\"" ];
  (* dashed backedge for the y recurrence, solid intra edges *)
  Alcotest.(check bool) "ends cleanly" true
    (Astring_contains.contains ~sub:"}\n" dot)

(* --- profiling loop reports --- *)

let test_loop_report_ordering () =
  let p = Helpers.memory_loop ~m:3 ~n:9 in
  let r = Interp.run p (Helpers.random_workload p) in
  match Interp.loop_reports r with
  | first :: rest ->
    List.iter
      (fun lr ->
        Alcotest.(check bool) "sorted by cycles" true
          (lr.Interp.lr_cycles <= first.Interp.lr_cycles))
      rest
  | [] -> Alcotest.fail "no loops profiled"

let suite =
  [ Alcotest.test_case "expand names" `Quick test_expand_names;
    Alcotest.test_case "expand decl types" `Quick test_expand_decl_types;
    Alcotest.test_case "expand collisions" `Quick
      test_expand_collision_rejected;
    Alcotest.test_case "index exit values" `Quick test_index_exit_value;
    Alcotest.test_case "list schedule ports" `Quick
      test_list_schedule_respects_ports;
    Alcotest.test_case "empty graph schedule" `Quick
      test_empty_graph_schedule;
    Alcotest.test_case "register area rounding" `Quick
      test_register_area_rounding;
    Alcotest.test_case "float operators" `Quick test_float_ops;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "loop report ordering" `Quick
      test_loop_report_ordering ]
