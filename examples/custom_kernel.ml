(* Bring-your-own kernel: a branchy checksum loop that needs the
   enabling rewrites — if-conversion to make the inner body a single
   basic block, induction-variable elimination for a running pointer —
   and then the combined transformation the paper suggests in §2:
   unroll-and-jam to fill the datapath, unroll-and-squash on top to
   fill the idle time slots.

   Run with:  dune exec examples/custom_kernel.exe *)

open Uas_ir
module B = Builder
module T = Uas_transform

let () =
  let m = 16 and n = 12 in
  (* per block: walk a running pointer through the stream and fold each
     byte into a Fletcher-ish state with a data-dependent branch *)
  let program =
    B.program "branchy_checksum"
      ~locals:
        [ ("i", Types.Tint); ("j", Types.Tint); ("ptr", Types.Tint);
          ("x", Types.Tint); ("s1", Types.Tint); ("s2", Types.Tint) ]
      ~arrays:[ B.input "stream" (m * n); B.output "sums" (2 * m) ]
      [ B.("ptr" <-- int 0);
        B.for_ "i" ~hi:(B.int m)
          [ B.("s1" <-- int 1);
            B.("s2" <-- int 0);
            B.for_ "j" ~hi:(B.int n)
              [ B.("x" <-- load "stream" (v "ptr" + v "j"));
                B.if_
                  B.(band (v "x") (int 1) == int 1)
                  [ B.("s1" <-- band (v "s1" + v "x") (int 65535)) ]
                  [ B.("s1" <-- band (v "s1" + shr (v "x") (int 1)) (int 65535)) ];
                B.("s2" <-- band (v "s2" + v "s1") (int 65535)) ];
            B.store "sums" B.(v "i" * int 2) (B.v "s1");
            B.store "sums" B.(v "i" * int 2 + int 1) (B.v "s2");
            B.("ptr" <-- v "ptr" + int n) ] ]
  in
  Fmt.pr "--- original kernel ---@.%a@." Pp.pp_program program;

  (* step 1: the raw nest is not transformable (branch in the body) *)
  let nest0 = Uas_analysis.Loop_nest.find_by_outer_index program "i" in
  Fmt.pr "before if-conversion: %a@." Uas_analysis.Legality.pp_verdict
    (Uas_analysis.Legality.check nest0 ~ds:2);

  (* step 2: if-convert; the induction variable [ptr] is handled
     automatically by the legality-driven rewrite inside squash/jam *)
  let converted = T.Ifconv.apply program in
  let nest1 = Uas_analysis.Loop_nest.find_by_outer_index converted "i" in
  Fmt.pr "after if-conversion:  %a@." Uas_analysis.Legality.pp_verdict
    (Uas_analysis.Legality.check nest1 ~ds:2);

  (* step 3: jam(2) to double the datapath, then squash(2) on top *)
  let jammed =
    match T.Unroll_and_jam.apply converted nest1 ~ds:2 with
    | Ok out -> out
    | Error v -> Fmt.failwith "jam: %a" Uas_analysis.Legality.pp_verdict v
  in
  let nest2 =
    Uas_analysis.Loop_nest.find_by_outer_index
      jammed.T.Unroll_and_jam.program "i"
  in
  let combined =
    match T.Squash.apply jammed.T.Unroll_and_jam.program nest2 ~ds:2 with
    | Ok out -> out
    | Error e -> Fmt.failwith "squash: %a" T.Squash.pp_error e
  in

  (* every stage still computes the same checksums *)
  let workload =
    Interp.workload
      ~arrays:
        [ ("stream",
           Array.init (m * n) (fun k -> Types.VInt ((k * 131) land 255))) ]
      ()
  in
  let reference = Interp.run program workload in
  List.iter
    (fun (name, (p : Stmt.program)) ->
      let r = Interp.run p workload in
      Fmt.pr "%-22s outputs identical: %b@." name
        (Interp.outputs_equal reference r))
    [ ("if-converted", converted);
      ("jam(2)", jammed.T.Unroll_and_jam.program);
      ("jam(2)+squash(2)", combined.T.Squash.program) ];

  (* the §2 arithmetic: jam doubles performance and operators; the
     squash on top doubles performance again for registers only.  Each
     estimate runs the version's pass pipeline on the if-converted
     kernel. *)
  Fmt.pr "@.";
  List.iter
    (fun version ->
      match
        Uas_core.Nimble.run_version_cu converted ~outer_index:"i"
          ~inner_index:"j" version
      with
      | Ok (_, _, r) -> Fmt.pr "%a@." Uas_hw.Estimate.pp_report r
      | Error d -> failwith (Uas_pass.Diag.to_string d))
    Uas_core.Nimble.[ Original; Jammed 2; Combined (2, 2) ]
