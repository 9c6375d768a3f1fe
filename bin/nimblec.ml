(* nimblec — a command-line front door to the unroll-and-squash flow,
   in the spirit of the Nimble Compiler driver (§5.2).

     nimblec list                        benchmarks and their kernels
     nimblec show skipjack-hw -v squash:4    print a transformed program
     nimblec estimate des-mem            Table 6.2 row for one benchmark
     nimblec run iir -v jam:2            execute + verify vs host reference
     nimblec dfg skipjack-hw             dump the kernel DFG
     nimblec profile                     the Table 1.1 study *)

open Cmdliner
module S = Uas_bench_suite
module N = Uas_core.Nimble
module E = Uas_core.Experiments
module P = Uas_core.Planner
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Rewrite = Uas_transform.Rewrite
module Session = Uas_cli.Session

let prog = "nimblec"

let find_benchmark name =
  match S.Registry.find name with
  | Some b -> b
  | None ->
    Fmt.epr "unknown benchmark %s; try `nimblec list'@." name;
    exit 2

(* A transformation rejected at the requested factor exits with its
   structured diagnostic, not an OCaml backtrace. *)
let build_or_exit ?after (p : Uas_ir.Stmt.program) ~outer_index ~inner_index
    version =
  match N.build_version_result ?after p ~outer_index ~inner_index version with
  | Ok built -> built
  | Error d ->
    Fmt.epr "nimblec: %a@." Diag.pp d;
    exit 1

(* --dump-after PASS: print the program (or the DFG, for the graph
   stages) as it stands after the named pipeline pass. *)

let dump_hook which ~pass cu =
  if String.equal pass which then
    match pass with
    | "dfg-build" | "schedule" -> (
      match Cu.dfg cu with
      | Some d ->
        Fmt.pr "// after pass %s (kernel %s)@.%s@." pass (Cu.inner_index cu)
          (Uas_dfg.Dot.to_dot ~name:pass d.Uas_dfg.Build.d_graph)
      | None -> ())
    | _ ->
      Fmt.pr "// after pass %s@.%a@." pass Uas_ir.Pp.pp_program
        (Cu.program cu)

let dump_after_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Print the IR after the named pipeline pass (DOT via Graphviz \
           for the graph stages dfg-build/schedule).  Accepts the stage \
           passes (loop-nest, legality, dfg-build, schedule, estimate) \
           and every registered rewrite name (squash, jam, interchange, \
           ...).")

(* Every name --dump-after accepts: the stage passes plus the rewrite
   registry. *)
let dumpable_passes () = Uas_pass.Stages.names @ Rewrite.names ()

(* The validated hook: [None] when not dumping. *)
let dump_hook_of = function
  | None -> None
  | Some pass when List.mem pass (dumpable_passes ()) ->
    Some (dump_hook pass)
  | Some pass ->
    Fmt.epr "unknown pass %s; passes: %s@." pass
      (String.concat ", " (dumpable_passes ()));
    exit 1

let parse_version s =
  let fail () =
    Fmt.epr
      "bad version %s (expected original | pipelined | squash:N | jam:N | \
       jam:J+squash:K | flatten+squash:N)@."
      s;
    exit 2
  in
  match String.lowercase_ascii s with
  | "original" -> N.Original
  | "pipelined" -> N.Pipelined
  | s -> (
    match String.split_on_char '+' s with
    | [ one ] -> (
      match String.split_on_char ':' one with
      | [ "squash"; n ] -> (
        match int_of_string_opt n with
        | Some n -> N.Squashed n
        | None -> fail ())
      | [ "jam"; n ] -> (
        match int_of_string_opt n with Some n -> N.Jammed n | None -> fail ())
      | _ -> fail ())
    | [ jam_part; squash_part ] -> (
      match
        ( String.split_on_char ':' jam_part,
          String.split_on_char ':' squash_part )
      with
      | [ "jam"; j ], [ "squash"; k ] -> (
        match (int_of_string_opt j, int_of_string_opt k) with
        | Some j, Some k -> N.Combined (j, k)
        | _ -> fail ())
      | [ "flatten" ], [ "squash"; k ] -> (
        match int_of_string_opt k with
        | Some k -> N.Flat_squashed k
        | None -> fail ())
      | _ -> fail ())
    | _ -> fail ())

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

(* [-v] only: subcommands inherit the group's [--version] from
   Cmdliner, and a second long option of the same name is a hard
   Invalid_argument at eval time *)
let version_arg =
  Arg.(
    value
    & opt string "original"
    & info [ "v" ] ~docv:"VERSION"
        ~doc:
          "original | pipelined | squash:N | jam:N | jam:J+squash:K | \
           flatten+squash:N (the deep-nest route)")

(* --server ADDR: serve the request from a nimbled daemon.  When the
   daemon is unreachable (bounded retries with exponential backoff and
   deterministic jitter exhausted) or rejects the request, nimblec
   falls back to local in-process compilation with an incident
   footnote on stderr — the stdout bytes are identical either way. *)
let server_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "server" ] ~docv:"ADDR"
        ~doc:
          "Unix-domain socket of a $(b,nimbled) daemon to serve this \
           request; unreachable or failing daemons degrade to local \
           in-process compilation with an incident footnote (see \
           docs/SERVICE.md)")

(* The incident footnote: stderr only, so stdout stays byte-identical
   to the daemon-served output. *)
let service_incident addr msg =
  Fmt.epr "nimblec: %a@." Diag.pp
    (Diag.errorf ~pass:"service"
       "daemon at %s unavailable (%s); falling back to local compilation"
       addr msg)

(* Serve one work request from the daemon, or run [local] as the
   degraded path. *)
let serve_or_local ~addr work ~local =
  match Uas_service.Client.serve_work addr work with
  | Uas_service.Client.Served payload -> print_string payload
  | Uas_service.Client.Rejected m | Uas_service.Client.Unreachable m ->
    service_incident addr m;
    local ()

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : S.Registry.benchmark) ->
        Fmt.pr "%-14s kernel: outer %s / inner %s — %s@." b.S.Registry.b_name
          b.S.Registry.b_outer_index b.S.Registry.b_inner_index
          b.S.Registry.b_description)
      (S.Registry.all () @ S.Registry.extras ())
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the Table 6.1 benchmarks and the extras")
    Term.(const run $ const ())

(* --- show --- *)

let show_cmd =
  let run name version dump_after =
    let b = find_benchmark name in
    let built =
      build_or_exit ?after:(dump_hook_of dump_after) b.S.Registry.b_program
        ~outer_index:b.S.Registry.b_outer_index
        ~inner_index:b.S.Registry.b_inner_index (parse_version version)
    in
    Fmt.pr "%a@." Uas_ir.Pp.pp_program built.N.bv_program
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the (transformed) program of a benchmark")
    Term.(const run $ bench_arg $ version_arg $ dump_after_arg)

(* --- estimate --- *)

let estimate_cmd =
  let run name verify dump_after server (s : Session.t) =
    let ctx = Session.start ~prog s in
    let local () =
      let ctx = Session.open_store ~prog s ctx in
      let b = find_benchmark name in
      let after = dump_hook_of dump_after in
      (* dumping from pool domains would interleave: force sequential *)
      let jobs = if Option.is_some after then Some 1 else s.Session.jobs in
      let row =
        E.run_benchmark ~ctx ~verify ~validate:s.Session.validate ?jobs
          ?timeout_s:s.Session.task_timeout ?retries:s.Session.retries ?after
          b
      in
      print_string (Uas_service.Handler.render_estimate row);
      if s.Session.timings then
        Fmt.pr "%a" Uas_runtime.Instrument.pp_summary ctx.trace;
      Session.report_store ctx
    in
    match server with
    | None -> local ()
    | Some addr ->
      serve_or_local ~addr
        (Uas_service.Handler.W_estimate
           { (Uas_service.Handler.estimate_opts name) with
             e_verify = verify;
             e_tier = s.Session.tier;
             e_validate = s.Session.validate })
        ~local
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Replay every version in the interpreter against the host \
                reference (slower)")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate all paper versions of a benchmark (Table 6.2/6.3 rows)")
    Term.(
      const run $ bench_arg $ verify $ dump_after_arg $ server_arg
      $ Session.term)

(* --- run --- *)

let run_cmd =
  let run name version s =
    let ctx = Session.start ~prog s in
    let tier = Uas_ir.Fast_interp.default_tier () in
    let b = find_benchmark name in
    let built =
      build_or_exit b.S.Registry.b_program
        ~outer_index:b.S.Registry.b_outer_index
        ~inner_index:b.S.Registry.b_inner_index (parse_version version)
    in
    let t0 = Unix.gettimeofday () in
    let result =
      S.Registry.run_tier ctx tier
        (Uas_ir.Fast_interp.Source built.N.bv_program)
        b.S.Registry.b_workload
    in
    let dt = Unix.gettimeofday () -. t0 in
    Fmt.pr
      "executed %d statements in %.3fs on the %s tier (estimated %d kernel \
       cycles)@."
      result.Uas_ir.Interp.profile.Uas_ir.Interp.stmts_executed dt
      (Uas_ir.Fast_interp.tier_name tier)
      result.Uas_ir.Interp.profile.Uas_ir.Interp.total_cycles;
    match S.Registry.check_result b result with
    | Ok () -> Fmt.pr "outputs match the host reference: yes@."
    | Error m ->
      Fmt.pr "outputs match the host reference: NO (%s)@." m;
      exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a (transformed) benchmark and verify its outputs")
    Term.(const run $ bench_arg $ version_arg $ Session.tier_only)

(* --- dfg --- *)

let dfg_cmd =
  let run name dot_path =
    let b = find_benchmark name in
    let nest =
      Uas_analysis.Loop_nest.find_by_outer_index b.S.Registry.b_program
        b.S.Registry.b_outer_index
    in
    let g, _ =
      Uas_dfg.Build.build ~inner_index:b.S.Registry.b_inner_index
        nest.Uas_analysis.Loop_nest.inner_body
    in
    (match dot_path with
    | Some path ->
      Session.write_output ~prog ~what:"--dot" path
        (Uas_dfg.Dot.to_dot ~name:b.S.Registry.b_name g);
      Fmt.pr "wrote %s@." path
    | None -> Fmt.pr "%a@." Uas_dfg.Graph.pp g);
    Fmt.pr "RecMII=%d ResMII=%d critical-path=%d@."
      (Uas_dfg.Graph.recurrence_mii g)
      (Uas_dfg.Sched.resource_mii Uas_dfg.Sched.default_config g)
      (Uas_dfg.Graph.critical_path g)
  in
  let dot_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering to FILE")
  in
  Cmd.v
    (Cmd.info "dfg" ~doc:"Dump the kernel data-flow graph of a benchmark")
    Term.(const run $ bench_arg $ dot_path)

(* --- export: emit C for a (transformed) benchmark --- *)

let export_cmd =
  let run name version path =
    let b = find_benchmark name in
    let built =
      build_or_exit b.S.Registry.b_program
        ~outer_index:b.S.Registry.b_outer_index
        ~inner_index:b.S.Registry.b_inner_index (parse_version version)
    in
    Session.write_output ~prog ~what:"export" path
      (Uas_ir.C_export.standalone built.N.bv_program
         ~workload:b.S.Registry.b_workload);
    Fmt.pr "wrote %s (compile with `cc %s && ./a.out`)@." path path
  in
  let path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT.c")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Emit a standalone C program for a (transformed) benchmark, \
             with its reference workload baked in")
    Term.(const run $ bench_arg $ version_arg $ path)

(* --- compile: transform a kernel from a source file --- *)

let compile_cmd =
  (* the addressable-nest catalog of the file, for the
     no-such-nest diagnostics: every loop index that can head a nest,
     with the depth of the nest it heads *)
  let pp_available ppf p =
    match Uas_analysis.Loop_nest.summary p with
    | [] -> Fmt.pf ppf "the file contains no loop nest"
    | entries ->
      Fmt.pf ppf "available nests:";
      List.iter
        (fun (idx, d) -> Fmt.pf ppf "@.  %s (depth %d)" idx d)
        entries
  in
  let run path target version estimate_flag dump_after =
    let p =
      try Uas_ir.Parser.program_of_file path
      with Uas_ir.Parser.Parse_error e ->
        Fmt.epr "%s:%d:%d: %s@." path e.line e.col e.msg;
        exit 1
    in
    (match Uas_ir.Validate.errors p with
    | [] -> ()
    | errs ->
      Fmt.epr "%a@." (Fmt.list Uas_ir.Validate.pp_error) errs;
      exit 1);
    let innermost_index (nest : Uas_analysis.Loop_nest.t) =
      (List.nth nest.Uas_analysis.Loop_nest.levels
         (Uas_analysis.Loop_nest.depth nest - 1))
        .Uas_analysis.Loop_nest.l_index
    in
    let outer, inner =
      match target with
      | Some idx -> (
        match Uas_analysis.Loop_nest.find_nest_opt p idx with
        | Some nest -> (idx, innermost_index nest)
        | None ->
          Fmt.epr "no loop nest with outer index %s in %s; %a@." idx path
            pp_available p;
          exit 1)
      | None -> (
        match Uas_analysis.Loop_nest.find p with
        | nest :: _ ->
          ( (List.hd nest.Uas_analysis.Loop_nest.levels)
              .Uas_analysis.Loop_nest.l_index,
            innermost_index nest )
        | [] ->
          Fmt.epr "no loop nest found in %s@." path;
          exit 1)
    in
    let built =
      build_or_exit ?after:(dump_hook_of dump_after) p ~outer_index:outer
        ~inner_index:inner (parse_version version)
    in
    Fmt.pr "%a@." Uas_ir.Pp.pp_program built.N.bv_program;
    if estimate_flag then begin
      let r = N.estimate built in
      Fmt.pr "// %a@." Uas_hw.Estimate.pp_report r
    end
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let target_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"INDEX"
          ~doc:
            "Outer loop index of the nest to transform (default: the \
             first nest in the file).  An index heading no nest exits \
             with the catalog of available nests and their depths.")
  in
  let estimate_flag =
    Arg.(value & flag & info [ "estimate" ] ~doc:"Also print the hardware estimate")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Parse a kernel source file, transform a loop nest (the first, \
             or the one named by $(b,--target)), print the result")
    Term.(
      const run $ path $ target_arg $ version_arg $ estimate_flag
      $ dump_after_arg)

(* --- plan --- *)

let objective_arg =
  let objective_conv =
    let parse s =
      match P.objective_of_string s with
      | Some o -> Ok o
      | None ->
        Error (`Msg (Printf.sprintf "expected ii, area or ratio, got %s" s))
    in
    let print ppf o = Fmt.string ppf (P.objective_name o) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt objective_conv P.Ratio
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:
          "Ranking objective: $(b,ii) (kernel initiation interval), \
           $(b,area) (area rows), or $(b,ratio) (speedup per area, the \
           Figure 6.3 efficiency metric; the default)")

let plan_cmd =
  let run name objective server (s : Session.t) =
    let ctx = Session.start ~prog s in
    (* the store opens with the first local plan: a daemon that serves
       every benchmark never needs it *)
    let local_ctx = lazy (Session.open_store ~prog s ctx) in
    (* one request (or local fallback) per benchmark, so a daemon that
       fails mid-list degrades only the affected benchmark *)
    let plan_one (b : S.Registry.benchmark) =
      let local () =
        let ctx = Lazy.force local_ctx in
        let probe =
          if s.Session.validate then Some b.S.Registry.b_workload else None
        in
        let plan =
          P.plan ~ctx ?jobs:s.Session.jobs ~objective ?validate:probe
            ?timeout_s:s.Session.task_timeout
            ?retries:s.Session.retries b.S.Registry.b_program
            ~outer_index:b.S.Registry.b_outer_index
            ~inner_index:b.S.Registry.b_inner_index
            ~benchmark:b.S.Registry.b_name
        in
        print_string (Uas_service.Handler.render_plan plan)
      in
      match server with
      | None -> local ()
      | Some addr ->
        serve_or_local ~addr
          (Uas_service.Handler.W_plan
             { Uas_service.Handler.p_bench = b.S.Registry.b_name;
               p_objective = objective;
               p_validate = s.Session.validate;
               p_budget_s = None })
          ~local
    in
    (match name with
    | Some name -> plan_one (find_benchmark name)
    | None -> List.iter plan_one (S.Registry.all () @ S.Registry.extras ()));
    if Lazy.is_val local_ctx then begin
      if s.Session.timings then
        Fmt.pr "%a" Uas_runtime.Instrument.pp_summary ctx.trace;
      Session.report_store (Lazy.force local_ctx)
    end
  in
  let bench_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Rank rewrite sequences ending in squash by the cost model \
             (all benchmarks when none is named)")
    Term.(const run $ bench_opt $ objective_arg $ server_arg $ Session.term)

(* --- daemon: control verbs against a nimbled instance --- *)

let daemon_cmd =
  let run action server attempts =
    let addr =
      match server with
      | Some addr -> addr
      | None -> Session.failf ~prog "daemon %s requires --server ADDR" action
    in
    let request =
      match action with
      | "hello" -> Uas_service.Handler.Hello "nimblec"
      | "health" -> Uas_service.Handler.Health
      | "stats" -> Uas_service.Handler.Stats
      | "drain" -> Uas_service.Handler.Drain
      | other ->
        Session.failf ~prog
          "unknown daemon action %s (hello|health|stats|drain)" other
    in
    match
      Uas_service.Client.call ?attempts addr
        (Uas_service.Handler.to_frame request)
    with
    | Uas_service.Client.Served payload -> Fmt.pr "%s@." payload
    | Uas_service.Client.Rejected m ->
      Fmt.epr "nimblec: daemon at %s rejected %s: %s@." addr action m;
      exit 1
    | Uas_service.Client.Unreachable m ->
      Fmt.epr "nimblec: daemon at %s unreachable: %s@." addr m;
      exit 1
  in
  let action_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION")
  in
  let attempts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "attempts" ] ~docv:"N"
          ~doc:"Connection attempts before giving up (default 4)")
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Control a nimbled daemon: $(b,hello) (handshake), $(b,health), \
          $(b,stats) (the v7 daemon counters + store), or $(b,drain) \
          (graceful shutdown; returns once in-flight work finishes)")
    Term.(const run $ action_arg $ server_arg $ attempts_arg)

(* --- profile --- *)

let profile_cmd =
  let run s =
    let ctx = Session.start ~prog s in
    Fmt.pr "%-28s %8s %12s %9s@." "benchmark" "# loops" "# loops>1%" "total %";
    List.iter
      (fun (r : S.Profile.row) ->
        Fmt.pr "%-28s %8d %12d %8.0f%%@." r.S.Profile.row_app
          r.S.Profile.loops r.S.Profile.hot_loops r.S.Profile.hot_percent)
      (S.Profile.table ~ctx ())
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Run the Table 1.1 loop-profiling study")
    Term.(const run $ Session.tier_only)

let () =
  let info =
    Cmd.info prog ~version:Uas_runtime.Build_info.version_string
      ~doc:"Unroll-and-squash loop pipelining flow"
  in
  exit
    (Cmd.eval
       (Cmd.group
          ~default:Term.(ret (const (`Help (`Pager, None))))
          info
          [ list_cmd; show_cmd; estimate_cmd; run_cmd; dfg_cmd; plan_cmd;
            profile_cmd; compile_cmd; export_cmd; daemon_cmd ]))
