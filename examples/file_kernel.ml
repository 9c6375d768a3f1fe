(* Kernels from source files: parse a .uas kernel, check it, sweep the
   transformation space, and print the winner — the whole flow on code
   that never touched the OCaml builder DSL.

   Run with:  dune exec examples/file_kernel.exe [FILE]
   (defaults to examples/kernels/rc5ish.uas) *)

open Uas_ir
module N = Uas_core.Nimble

let default_path = "examples/kernels/rc5ish.uas"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else default_path in
  let program =
    try Parser.program_of_file path
    with
    | Parser.Parse_error e ->
      Fmt.epr "%s:%d:%d: %s@." path e.line e.col e.msg;
      exit 1
    | Sys_error m ->
      Fmt.epr "%s@." m;
      exit 1
  in
  (match Validate.errors program with
  | [] -> ()
  | errs ->
    Fmt.epr "%a@." (Fmt.list Validate.pp_error) errs;
    exit 1);
  Fmt.pr "parsed %s (%d statements)@." program.Stmt.prog_name
    (Stmt.size program.Stmt.body);

  (* find the nest and report what the analyses see *)
  let nest =
    match Uas_analysis.Loop_nest.find program with
    | n :: _ ->
      Uas_analysis.Loop_nest.find_by_outer_index program
        (List.hd n.Uas_analysis.Loop_nest.levels).Uas_analysis.Loop_nest.l_index
    | [] ->
      Fmt.epr "no loop nest in %s@." path;
      exit 1
  in
  let outer = nest.Uas_analysis.Loop_nest.outer_index in
  let inner = nest.Uas_analysis.Loop_nest.inner_index in
  Fmt.pr "kernel nest: outer %s (%a trips), inner %s (%a trips)@." outer
    Fmt.(option int)
    (Uas_analysis.Loop_nest.outer_trip_count nest)
    inner
    Fmt.(option int)
    (Uas_analysis.Loop_nest.inner_trip_count nest);
  Fmt.pr "legality at DS=4: %a@." Uas_analysis.Legality.pp_verdict
    (Uas_analysis.Legality.check nest ~ds:4);

  (* sweep and report: each version's pass pipeline, the illegal ones
     dropped *)
  let rows =
    List.filter_map
      (fun v ->
        match N.run_version_cu program ~outer_index:outer ~inner_index:inner v with
        | Ok (_, built, r) -> Some (v, built, r)
        | Error _ -> None)
      [ N.Original; N.Pipelined; N.Squashed 2; N.Squashed 4; N.Squashed 8;
        N.Jammed 2; N.Jammed 4; N.Combined (2, 2) ]
  in
  Fmt.pr "@.%-18s %6s %8s %6s@." "version" "II" "area" "regs";
  List.iter
    (fun (v, _, (r : Uas_hw.Estimate.report)) ->
      Fmt.pr "%-18s %6d %8d %6d@." (N.version_name v) r.Uas_hw.Estimate.r_ii
        r.Uas_hw.Estimate.r_area_rows r.Uas_hw.Estimate.r_registers)
    rows;
  match N.select_best rows with
  | Some (v, _, _) -> Fmt.pr "@.best speedup/area: %s@." (N.version_name v)
  | None -> ()
