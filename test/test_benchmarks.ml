(* The Table 6.1 benchmark suite: known-answer tests for the host
   implementations, IR-vs-host equivalence, and — the heart of the
   reproduction — every transformed version of every benchmark must
   reproduce the reference outputs bit-for-bit. *)

open Uas_ir
module S = Uas_bench_suite
module N = Uas_core.Nimble
module E = Uas_core.Experiments

(* --- host known-answer tests --- *)

let test_skipjack_kat () =
  let got =
    S.Skipjack.encrypt_block ~key:S.Skipjack.kat_key
      ( S.Skipjack.kat_plaintext_words.(0),
        S.Skipjack.kat_plaintext_words.(1),
        S.Skipjack.kat_plaintext_words.(2),
        S.Skipjack.kat_plaintext_words.(3) )
  in
  let w1, w2, w3, w4 = got in
  Alcotest.(check (list int))
    "official Skipjack test vector"
    (Array.to_list S.Skipjack.kat_ciphertext_words)
    [ w1; w2; w3; w4 ]

let test_des_kat () =
  let got = S.Des.encrypt_block ~key64:S.Des.kat_key S.Des.kat_plaintext in
  Alcotest.(check int64) "textbook DES test vector" S.Des.kat_ciphertext got

let test_des_spbox_matches_sbox () =
  (* the combined SP-boxes must agree with direct S-box + P lookup *)
  for b = 0 to 7 do
    for v = 0 to 63 do
      let direct =
        S.Des.permute ~in_width:32 S.Des.p_table
          (S.Des.sbox_lookup b v lsl (28 - (4 * b)))
      in
      if S.Des.spbox.(b).(v) <> direct then
        Alcotest.failf "spbox(%d)(%d) mismatch" b v
    done
  done

let test_skipjack_f_table_is_permutation () =
  let seen = Array.make 256 false in
  Array.iter (fun x -> seen.(x) <- true) S.Skipjack.f_table;
  Alcotest.(check bool) "F is a 256-permutation" true
    (Array.for_all (fun b -> b) seen)

(* --- IR vs host --- *)

let test_reference_outputs () =
  List.iter
    (fun (b : S.Registry.benchmark) ->
      match S.Registry.check_against_reference b b.S.Registry.b_program with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" b.S.Registry.b_name m)
    (S.Registry.all () @ S.Registry.extras ())

let test_benchmarks_validate () =
  List.iter
    (fun (b : S.Registry.benchmark) ->
      match Validate.errors b.S.Registry.b_program with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s: %a" b.S.Registry.b_name
          (Fmt.list Validate.pp_error) errs)
    (S.Registry.all () @ S.Registry.extras ())

(* --- every paper version of every benchmark stays correct --- *)

(* Every cell of a verified sweep: interpreted against the host
   reference, and with no incident — the schedule stage re-checks every
   schedule behind a reported II with [Sched.check_schedule] and logs a
   violation as an incident. *)
let check_row_verified ?versions ~expected (b : S.Registry.benchmark) =
  let row = E.run_benchmark ~verify:true ?versions b in
  Alcotest.(check int)
    (b.S.Registry.b_name ^ " all versions built")
    expected
    (List.length row.E.br_cells);
  List.iter
    (fun (c : E.cell) ->
      let cell = b.S.Registry.b_name ^ " " ^ N.version_name c.E.c_version in
      List.iter
        (fun d -> Alcotest.failf "%s: %s" cell (Uas_pass.Diag.to_string d))
        c.E.c_incidents;
      Alcotest.(check bool) (cell ^ " verified") true c.E.c_verified)
    row.E.br_cells

let test_all_versions_verified () =
  (* smaller instances keep the interpreter fast; factors up to 16 need
     m >= 16 *)
  List.iter
    (check_row_verified ~expected:(List.length N.paper_versions))
    [ S.Registry.skipjack_mem ~m:16 ();
      S.Registry.skipjack_hw ~m:16 ();
      S.Registry.des_mem ~m:16 ();
      S.Registry.des_hw ~m:16 ();
      S.Registry.iir ~channels:16 () ]

let test_versions_with_peeling () =
  (* block counts that are not multiples of the factors *)
  check_row_verified ~expected:3
    ~versions:[ N.Squashed 4; N.Jammed 4; N.Squashed 16 ]
    (S.Registry.skipjack_mem ~m:19 ())

(* --- the 3-deep extra: every deep-nest version stays correct --- *)

let test_wavelet3_versions_verified () =
  let versions = N.versions_for ~depth:3 in
  check_row_verified ~versions ~expected:(List.length versions)
    (S.Registry.wavelet3 ())

(* the raw squash on the deep pair must be rejected with the inner-loop
   diagnostic, not mis-applied: the whole reason the flatten route
   exists *)
let test_wavelet3_raw_squash_rejected () =
  let b = S.Registry.wavelet3 () in
  match
    Helpers.build b.S.Registry.b_program
      ~outer_index:b.S.Registry.b_outer_index
      ~inner_index:b.S.Registry.b_inner_index (N.Squashed 4)
  with
  | Ok _ -> Alcotest.fail "raw squash on the 3-deep nest must be rejected"
  | Error d ->
    Alcotest.(check string) "rejecting pass" "squash" d.Uas_pass.Diag.d_pass

(* --- profiling study --- *)

let test_profile_hot_loops_dominate () =
  let rows = S.Profile.table () in
  Alcotest.(check int) "six applications" 6 (List.length rows);
  List.iter
    (fun (r : S.Profile.row) ->
      Alcotest.(check bool)
        (r.S.Profile.row_app ^ " hot loops cover most time")
        true
        (r.S.Profile.hot_percent > 80.0);
      let paper_loops, _, _ = r.S.Profile.paper in
      Alcotest.(check int)
        (r.S.Profile.row_app ^ " static loop count")
        paper_loops r.S.Profile.loops)
    rows

let test_profile_few_loops_hot () =
  List.iter
    (fun (r : S.Profile.row) ->
      Alcotest.(check bool)
        (r.S.Profile.row_app ^ " only a few loops are hot")
        true
        (r.S.Profile.hot_loops <= 16))
    (S.Profile.table ())

let suite =
  [ Alcotest.test_case "skipjack KAT" `Quick test_skipjack_kat;
    Alcotest.test_case "DES KAT" `Quick test_des_kat;
    Alcotest.test_case "DES SP-boxes" `Quick test_des_spbox_matches_sbox;
    Alcotest.test_case "skipjack F permutation" `Quick
      test_skipjack_f_table_is_permutation;
    Alcotest.test_case "IR matches host references" `Quick
      test_reference_outputs;
    Alcotest.test_case "benchmarks validate" `Quick test_benchmarks_validate;
    Alcotest.test_case "all versions verified" `Slow
      test_all_versions_verified;
    Alcotest.test_case "versions with peeling" `Slow
      test_versions_with_peeling;
    Alcotest.test_case "wavelet3 deep-nest versions verified" `Slow
      test_wavelet3_versions_verified;
    Alcotest.test_case "wavelet3 raw squash rejected" `Quick
      test_wavelet3_raw_squash_rejected;
    Alcotest.test_case "profile hot loops dominate" `Quick
      test_profile_hot_loops_dominate;
    Alcotest.test_case "profile few loops hot" `Quick
      test_profile_few_loops_hot ]
