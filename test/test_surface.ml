(* No escape from surface text: mutants of every kernel the project
   ships as text — each registry benchmark in its printed form, each
   examples/kernels/*.uas file — run the path nimblec compile takes:
   parse, validate, locate the first loop nest, then every paper
   version through its transform and quick-synthesis passes.  A mutant
   may be rejected at any step, but only as a [Parse_error], a
   validation error or a [Diag.t]; any other exception is a backtrace a
   user would see.

   The mutants come from a pinned seed (421), independent of
   QCHECK_SEED, so a failure reproduces exactly. *)

open Uas_ir
module N = Uas_core.Nimble
module R = Uas_bench_suite.Registry

let seed = 421
let mutants_per_source = 20

let sources () =
  let kernels =
    match
      List.find_opt Sys.file_exists [ "../examples/kernels"; "examples/kernels" ]
    with
    | None -> []
    | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".uas")
      |> List.sort compare
      |> List.map (fun f ->
             ( f,
               In_channel.with_open_bin (Filename.concat dir f)
                 In_channel.input_all ))
  in
  List.map (fun b -> (b.R.b_name, Pp.program_to_string b.R.b_program))
    (R.all () @ R.extras ())
  @ kernels

(* fragments a typo or a hostile edit might bring: malformed and
   overflowing literals, loop headers, bounds, operators, brackets *)
let fragments =
  [| "1e"; "0x"; "99999999999999999999"; "1e400"; "0."; "-"; "for";
     "for (i = 0; i < n; i++) {"; "}"; "{"; ")"; "("; ";"; "["; "]"; "=";
     "+"; "*"; "/ 0"; "<<"; "int"; "float"; "in"; "out"; "if ("; "else";
     "x"; "i"; "j"; "@"; "\""; "//"; "/*" |]

let mutate rng text =
  let n = String.length text in
  let pos () = Random.State.int rng (max 1 n) in
  let splice at len ins =
    let at = min at n in
    let len = min len (n - at) in
    String.sub text 0 at ^ ins ^ String.sub text (at + len) (n - at - len)
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  match Random.State.int rng 5 with
  | 0 -> splice (pos ()) (1 + Random.State.int rng 3) ""
  | 1 -> splice (pos ()) 0 (pick fragments)
  | 2 -> splice (pos ()) 1 (pick fragments)
  | 3 -> (
    (* a numeric literal replaced by another, often a malformed one *)
    let digits =
      List.filter
        (fun i -> text.[i] >= '0' && text.[i] <= '9')
        (List.init n Fun.id)
    in
    match digits with
    | [] -> splice (pos ()) 0 (pick fragments)
    | _ ->
      let at = List.nth digits (Random.State.int rng (List.length digits)) in
      splice at 1 (pick [| "1e"; "0x"; "99999999999999999999"; "0"; "7" |]))
  | _ ->
    (* a loop's start replaced by another loop's index: a dynamic
       kernel bound *)
    let marker = "= 0;" in
    let m = String.length marker in
    let hits =
      List.filter
        (fun i -> i + m <= n && String.equal (String.sub text i m) marker)
        (List.init n Fun.id)
    in
    (match hits with
    | [] -> splice (pos ()) 0 (pick fragments)
    | hits ->
      let at = List.nth hits (Random.State.int rng (List.length hits)) in
      splice at (String.length marker) (pick [| "= i;"; "= j;"; "= n;" |]))

(* The mutant's path; [Ok ()] when every step either succeeds or
   rejects it with a typed error. *)
let run_path text =
  match Parser.program_of_string text with
  | exception Parser.Parse_error _ -> ()
  | p -> (
    match Validate.errors p with
    | _ :: _ -> ()
    | [] -> (
      match Uas_analysis.Loop_nest.find p with
      | [] -> ()
      | nest :: _ ->
        let levels = nest.Uas_analysis.Loop_nest.levels in
        let index l = l.Uas_analysis.Loop_nest.l_index in
        let outer_index = index (List.hd levels) in
        let inner_index = index (List.nth levels (List.length levels - 1)) in
        List.iter
          (fun v ->
            match N.run_version_cu p ~outer_index ~inner_index v with
            | Ok _ | Error _ -> ())
          N.paper_versions))

let test_no_escape () =
  let rng = Random.State.make [| seed |] in
  List.iter
    (fun (name, text) ->
      for k = 1 to mutants_per_source do
        let mutant = mutate rng text in
        match run_path mutant with
        | () -> ()
        | exception e ->
          Alcotest.failf "%s mutant %d: %s escaped:@\n%s" name k
            (Printexc.to_string e) mutant
      done)
    (sources ())

let suite =
  [ Alcotest.test_case "mutated kernels: typed errors only" `Quick
      test_no_escape ]
