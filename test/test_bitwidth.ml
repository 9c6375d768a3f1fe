(* Bit-width inference: range soundness (the interpreter never observes
   a value outside the inferred range) and the operator-sizing effect on
   the crypto kernels. *)

open Uas_ir
module S = Uas_bench_suite
module BW = Uas_hw.Bitwidth
module Build = Uas_dfg.Build

let detail_of body = Build.build_detailed ~inner_index:"j" body

let test_mask_ranges () =
  let body =
    [ Builder.("x" <-- band (v "a") (int 255));
      Builder.("y" <-- v "x" + int 10);
      Builder.("z" <-- shr (v "y") (int 2));
      Builder.("c" <-- (v "z" < int 7)) ]
  in
  let detail = detail_of body in
  let ranges = BW.node_ranges detail [] in
  let range_of_def name =
    let node = List.assoc name detail.Build.d_live_out_nodes in
    ranges.(node)
  in
  let check name lo hi =
    let r = range_of_def name in
    Alcotest.(check bool)
      (Printf.sprintf "%s in [%d,%d] (got [%d,%d])" name lo hi r.BW.lo r.BW.hi)
      true
      (r.BW.lo >= lo && r.BW.hi <= hi)
  in
  check "x" 0 255;
  check "y" 10 265;
  check "z" 0 66;  (* shr lower bound is conservatively 0 *)
  check "c" 0 1;
  Alcotest.(check int) "width of x" 8 (BW.width_bits (range_of_def "x"));
  Alcotest.(check int) "width of c" 1 (BW.width_bits (range_of_def "c"))

let test_rom_ranges () =
  let body = [ Builder.("x" <-- rom "tab" (band (v "a") (int 3))) ] in
  let detail = detail_of body in
  let ranges = BW.node_ranges detail [ ("tab", [| 7; 130; 45; 0 |]) ] in
  let node = List.assoc "x" detail.Build.d_live_out_nodes in
  Alcotest.(check bool) "rom range" true
    (ranges.(node).BW.lo = 0 && ranges.(node).BW.hi = 130);
  Alcotest.(check int) "rom width" 8 (BW.width_bits ranges.(node))

let test_qcheck_range_soundness =
  (* every value the pipeline simulator computes lies inside the
     inferred range of its node *)
  QCheck.Test.make ~name:"range soundness (random bodies vs simulator)"
    ~count:60 Helpers.arbitrary_nest_program
    (fun p ->
      let nest = Uas_analysis.Loop_nest.find_by_outer_index p "i" in
      let detail =
        Build.build_detailed ~inner_index:"j"
          nest.Uas_analysis.Loop_nest.inner_body
      in
      let schedule = Uas_dfg.Sched.modulo_schedule detail.Build.d_graph in
      let ranges = BW.node_ranges detail [ ("tab", Array.make 64 0) ] in
      let arrays : (string, Types.value array) Hashtbl.t = Hashtbl.create 4 in
      Hashtbl.replace arrays "src"
        (Array.init 64 (fun k -> Types.VInt ((k * 97) land 1023)));
      Hashtbl.replace arrays "tab"
        (Array.init 64 (fun k -> Types.VInt ((k * 41) land 255)));
      Hashtbl.replace arrays "dst" (Array.make 64 (Types.VInt 0));
      let r =
        Uas_hw.Pipeline_sim.run ~detail ~schedule ~iterations:5
          ~env:(fun n -> if n = "j" then Types.VInt 0 else Types.VInt 42)
          ~arrays
          ~roms:(Hashtbl.create 1)
          ~index:"j" ()
      in
      (* check the live-out scalars against their node ranges *)
      List.for_all
        (fun (base, value) ->
          match
            (value, List.assoc_opt base detail.Build.d_live_out_nodes)
          with
          | Types.VInt v, Some node ->
            let rg = ranges.(node) in
            v >= rg.BW.lo && v <= rg.BW.hi
          | _ -> true)
        r.Uas_hw.Pipeline_sim.sim_live_out)

let test_skipjack_narrower_than_des () =
  (* the Skipjack round is byte/word arithmetic behind masks; DES works
     on 32-bit words — width-aware sizing must separate them *)
  (* entry knowledge the back end would have: the loop index bounds and
     the bus width of the block words (16-bit for skipjack, 32 for DES) *)
  let width_ratio prog roms word_hi =
    let nest = Uas_analysis.Loop_nest.find_by_outer_index prog "i" in
    let detail =
      Build.build_detailed ~inner_index:"j"
        nest.Uas_analysis.Loop_nest.inner_body
    in
    let entry name =
      if name = "j" then Some { BW.lo = 0; hi = 32 }
      else if String.length name >= 1 && (name.[0] = 'w' || name = "l" || name = "r")
      then Some { BW.lo = 0; hi = word_hi }
      else None
    in
    let default =
      Uas_dfg.Graph.total_operator_area detail.Build.d_graph
    in
    let aware = BW.operator_area ~entry detail ~roms in
    float_of_int aware /. float_of_int default
  in
  let key = S.Skipjack.random_key ~seed:31 in
  let sj =
    width_ratio
      (S.Skipjack.skipjack_hw ~m:8 ~key)
      [ ("ftable", S.Skipjack.f_table); ("cv", key) ]
      0xffff
  in
  let des =
    width_ratio
      (S.Des.des_hw ~m:8 ~key64:0x0123456789ABCDEFL)
      [ ("spbox", S.Des.spbox_flat);
        ("subkeys", S.Des.key_schedule 0x0123456789ABCDEFL) ]
      0xffffffff
  in
  Alcotest.(check bool)
    (Printf.sprintf "skipjack (%.2f) narrower than DES (%.2f)" sj des)
    true (sj < des);
  Alcotest.(check bool) "skipjack well under full width" true (sj < 0.7)

let suite =
  [ Alcotest.test_case "mask ranges" `Quick test_mask_ranges;
    Alcotest.test_case "rom ranges" `Quick test_rom_ranges;
    QCheck_alcotest.to_alcotest test_qcheck_range_soundness;
    Alcotest.test_case "skipjack narrower than DES" `Quick
      test_skipjack_narrower_than_des ]
