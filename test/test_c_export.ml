(* C export: emitted programs compile with the system C compiler and
   print bit-identical outputs to the reference interpreter — for the
   originals AND for squashed/jammed versions (generated '@' names
   included).  Skipped cleanly when no C compiler is present. *)

open Uas_ir
module S = Uas_bench_suite

let cc_available =
  lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

let require_cc () =
  if not (Lazy.force cc_available) then
    Alcotest.skip ()

(* run a standalone emitted program, return its stdout lines *)
let compile_and_run (p : Stmt.program) (w : Interp.workload) : string list =
  let src = Filename.temp_file "uas_" ".c" in
  let exe = Filename.temp_file "uas_" ".exe" in
  let out = Filename.temp_file "uas_" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with _ -> ()) [ src; exe; out ])
    (fun () ->
      C_export.write_standalone p ~workload:w ~path:src;
      let cmd =
        Printf.sprintf "cc -O1 -o %s %s > %s 2>&1" (Filename.quote exe)
          (Filename.quote src) (Filename.quote out)
      in
      if Sys.command cmd <> 0 then
        Alcotest.failf "cc failed on generated code:\n%s"
          (In_channel.with_open_text out In_channel.input_all);
      if Sys.command (Printf.sprintf "%s > %s" (Filename.quote exe) (Filename.quote out)) <> 0
      then Alcotest.fail "generated program crashed";
      In_channel.with_open_text out In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

(* expected lines from the interpreter, same formatting as the C side *)
let interp_lines (p : Stmt.program) (w : Interp.workload) : string list =
  let r = Interp.run p w in
  List.concat_map
    (fun (d : Stmt.array_decl) ->
      match d.a_kind with
      | Stmt.Output ->
        Array.to_list
          (Array.map
             (fun v ->
               match v with
               | Types.VInt n -> string_of_int n
               | Types.VFloat f -> Printf.sprintf "%h" f)
             (List.assoc d.a_name r.Interp.outputs))
      | Stmt.Input | Stmt.Local -> [])
    p.arrays

let check_program name p w =
  require_cc ();
  let got = compile_and_run p w in
  let expected = interp_lines p w in
  if got <> expected then begin
    let show l = String.concat "," (List.filteri (fun i _ -> i < 8) l) in
    Alcotest.failf "%s: C output differs\n  C:      %s...\n  interp: %s..."
      name (show got) (show expected)
  end

let test_fg () =
  let p = S.Simple.fg_loop ~m:8 ~n:5 in
  check_program "fg" p (Helpers.random_workload p)

let test_skipjack () =
  let key = S.Skipjack.random_key ~seed:41 in
  let words = S.Skipjack.random_words ~seed:42 32 in
  check_program "skipjack-mem" (S.Skipjack.skipjack_mem ~m:8)
    (S.Skipjack.workload_mem ~key words);
  check_program "skipjack-hw"
    (S.Skipjack.skipjack_hw ~m:8 ~key)
    (S.Skipjack.workload_hw words)

let test_des () =
  let key64 = 0x0123456789ABCDEFL in
  let halves = S.Des.random_halves ~seed:43 16 in
  check_program "des-mem" (S.Des.des_mem ~m:8)
    (S.Des.workload_mem ~key64 halves)

let test_iir_floats () =
  let signal = S.Iir.random_signal ~seed:44 (4 * S.Iir.points_per_channel) in
  check_program "iir" (S.Iir.iir ~channels:4) (S.Iir.workload signal)

let test_squashed_and_jammed () =
  (* the generated copies ('@' names) survive the C name mangling *)
  let p = S.Simple.fg_loop ~m:8 ~n:5 in
  let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
  let w = Helpers.random_workload p in
  let sq = Helpers.squash p nest ~ds:4 in
  check_program "squashed fg" sq.Uas_transform.Squash.program w;
  let jam = Helpers.jam p nest ~ds:2 in
  check_program "jammed fg" jam.Uas_transform.Unroll_and_jam.program w

let test_branchy () =
  let open Builder in
  let p =
    program "branchy_c"
      ~locals:[ ("j", Types.Tint); ("x", Types.Tint) ]
      ~arrays:[ input "a" 16; output "b" 16 ]
      [ for_ "j" ~hi:(int 16)
          [ ("x" <-- load "a" (v "j"));
            if_ (band (v "x") (int 1) == int 1)
              [ ("x" <-- v "x" * int 3 + int 1) ]
              [ ("x" <-- shr (v "x") (int 1)) ];
            store "b" (v "j") (select (v "x" > int 100) (int 100) (v "x")) ] ]
  in
  check_program "branchy" p (Helpers.random_workload p)

let suite =
  [ Alcotest.test_case "fg via cc" `Quick test_fg;
    Alcotest.test_case "skipjack via cc" `Quick test_skipjack;
    Alcotest.test_case "des via cc" `Quick test_des;
    Alcotest.test_case "iir (doubles) via cc" `Quick test_iir_floats;
    Alcotest.test_case "squashed/jammed via cc" `Quick
      test_squashed_and_jammed;
    Alcotest.test_case "branches and selects via cc" `Quick test_branchy ]
