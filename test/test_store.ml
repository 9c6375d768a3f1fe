(* The persistent artifact store: entry round-trips, corruption
   classified as Bad (never a wrong payload), size-bounded eviction,
   the Record codec every payload is written in, and the end-to-end
   contract — a warm cache run is byte-identical to the cold one with
   the artifacts served from the store, and verify mode flags a
   poisoned entry as an incident instead of believing it. *)

module Store = Uas_runtime.Store
module Record = Uas_runtime.Record
module Instrument = Uas_runtime.Instrument
module E = Uas_core.Experiments
module P = Uas_core.Planner
module N = Uas_core.Nimble
module R = Uas_bench_suite.Registry

(* --- fixtures --- *)

let dir_counter = ref 0

(* the stores opened since the last cleanup: [removing_stores] removes
   them when its test ends *)
let opened = ref []

(* a fresh store rooted in the system temp dir; open_dir creates it *)
let open_fresh ?max_bytes () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uas-store-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  opened := dir :: !opened;
  match Store.open_dir ?max_bytes dir with
  | Ok s -> s
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m

let removing_stores f () =
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun dir -> if Sys.file_exists dir then Helpers.remove_tree dir)
        !opened;
      opened := [])

let object_files s =
  let rec walk dir acc =
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then walk path acc else path :: acc)
      acc (Sys.readdir dir)
  in
  walk (Filename.concat (Store.dir s) "objects") []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let counter trace name =
  match List.assoc_opt name (Instrument.counters trace) with
  | Some n -> n
  | None -> 0

(* --- the store proper --- *)

let test_write_read_roundtrip () =
  let s = open_fresh () in
  let key = Store.key [ "kind=demo"; "some provenance"; "program text" ] in
  (* payloads are raw bytes: newlines and NULs must survive *)
  let payload = "line one\nline two\x00binary tail\n" in
  (match Store.write s ~kind:"demo" ~key payload with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match Store.read s ~kind:"demo" ~key with
  | Store.Hit p -> Alcotest.(check string) "payload survives" payload p
  | Store.Miss -> Alcotest.fail "expected a hit, got a miss"
  | Store.Bad m -> Alcotest.failf "expected a hit, got bad: %s" m);
  let st = Store.stats s in
  Alcotest.(check int) "one write" 1 st.Store.st_writes;
  Alcotest.(check int) "one hit" 1 st.Store.st_hits;
  Alcotest.(check (float 1e-9)) "hit rate 1" 1.0 (Store.hit_rate st)

let test_unknown_key_is_miss () =
  let s = open_fresh () in
  (match Store.read s ~kind:"demo" ~key:(Store.key [ "never written" ]) with
  | Store.Miss -> ()
  | Store.Hit _ | Store.Bad _ -> Alcotest.fail "expected a miss");
  Alcotest.(check int) "one miss" 1 (Store.stats s).Store.st_misses

let test_key_separates_parts () =
  (* the NUL joiner keeps part boundaries out of collision range *)
  Alcotest.(check bool)
    "[ab] <> [a;b]" false
    (String.equal (Store.key [ "ab" ]) (Store.key [ "a"; "b" ]));
  Alcotest.(check string)
    "deterministic"
    (Store.key [ "a"; "b" ])
    (Store.key [ "a"; "b" ])

let test_flipped_bit_is_bad () =
  let s = open_fresh () in
  let key = Store.key [ "corruptible" ] in
  (match Store.write s ~kind:"demo" ~key "precious artifact bytes" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match object_files s with
  | [ path ] ->
    let contents = read_file path in
    let b = Bytes.of_string contents in
    let i = Bytes.length b - 3 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    write_file path (Bytes.to_string b)
  | files -> Alcotest.failf "expected 1 object file, got %d" (List.length files));
  (match Store.read s ~kind:"demo" ~key with
  | Store.Bad m ->
    Alcotest.(check bool) "names the checksum" true
      (Helpers.contains ~sub:"checksum" m)
  | Store.Hit _ -> Alcotest.fail "corrupted entry served as a hit"
  | Store.Miss -> Alcotest.fail "corrupted entry classified as a miss");
  Alcotest.(check int) "one bad" 1 (Store.stats s).Store.st_bad

let test_truncated_entry_is_bad () =
  let s = open_fresh () in
  let key = Store.key [ "torn" ] in
  (match Store.write s ~kind:"demo" ~key "a payload that will be cut" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match object_files s with
  | [ path ] ->
    let contents = read_file path in
    write_file path (String.sub contents 0 (String.length contents - 5))
  | files -> Alcotest.failf "expected 1 object file, got %d" (List.length files));
  match Store.read s ~kind:"demo" ~key with
  | Store.Bad _ -> ()
  | Store.Hit _ -> Alcotest.fail "torn entry served as a hit"
  | Store.Miss -> Alcotest.fail "torn entry classified as a miss"

let test_entry_under_wrong_key_is_bad () =
  (* a file that lands under the wrong name (hardware bit rot in a
     directory block, a mangled restore) carries its own key and is
     rejected *)
  let s = open_fresh () in
  let key_a = Store.key [ "entry a" ] in
  let key_b = Store.key [ "entry b" ] in
  (match Store.write s ~kind:"demo" ~key:key_a "payload a" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match object_files s with
  | [ path_a ] ->
    let prefix = String.sub key_b 0 2 in
    let dir_b =
      Filename.concat
        (Filename.concat (Filename.concat (Store.dir s) "objects") "demo")
        prefix
    in
    (try Unix.mkdir dir_b 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    write_file (Filename.concat dir_b key_b) (read_file path_a)
  | files -> Alcotest.failf "expected 1 object file, got %d" (List.length files));
  match Store.read s ~kind:"demo" ~key:key_b with
  | Store.Bad m ->
    Alcotest.(check bool) "names the key mismatch" true
      (Helpers.contains ~sub:"key mismatch" m)
  | Store.Hit _ -> Alcotest.fail "misplaced entry served as a hit"
  | Store.Miss -> Alcotest.fail "misplaced entry classified as a miss"

let test_eviction_bounds_size () =
  let max_bytes = 4096 in
  let s = open_fresh ~max_bytes () in
  let payload = String.make 200 'x' in
  for i = 1 to 40 do
    match
      Store.write s ~kind:"demo"
        ~key:(Store.key [ string_of_int i ])
        payload
    with
    | Ok () -> ()
    | Error m -> Alcotest.failf "write %d: %s" i m
  done;
  let st = Store.stats s in
  Alcotest.(check bool)
    "sweep ran" true (st.Store.st_evicted > 0);
  let on_disk =
    List.fold_left
      (fun acc path -> acc + (Unix.stat path).Unix.st_size)
      0 (object_files s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "on-disk size %d bounded by the budget %d" on_disk
       max_bytes)
    true (on_disk <= max_bytes)

(* --- the Record codec --- *)

let iir () =
  match R.find "iir" with
  | Some b -> b
  | None -> Alcotest.fail "IIR benchmark missing"

let fields = Alcotest.(list (pair string string))
let decoded = Alcotest.(result fields string)

(* keys: non-empty, no '=' or newline; values: arbitrary bytes *)
let gen_fields =
  let open QCheck.Gen in
  let key_char = map (fun c -> if c = '=' || c = '\n' then 'k' else c) char in
  small_list
    (pair
       (string_size ~gen:key_char (int_range 1 8))
       (string_size (int_bound 24)))

let test_record_roundtrip =
  QCheck.Test.make ~name:"record round-trip property" ~count:500
    (QCheck.make gen_fields
       ~print:QCheck.Print.(list (pair string string)))
    (fun r -> Record.decode (Record.encode r) = Ok r)

(* Values a report name, a diagnostic or a note may carry — spaces,
   '=', newlines, tabs, backslashes, quotes, high bytes — and records
   nested as values, all survive; only a line without '=' or with a
   bad escape is an error, and it is named. *)
let test_record_values_verbatim () =
  let inner = Record.encode [ ("pass", "squash"); ("message", "a\tb\nc") ] in
  let r =
    [ ("name", "odd name= with spaces");
      ("note", "two\nlines \\ \"quoted\" \255\000");
      ("empty", "");
      ("incident", inner);
      ("incident", "") ]
  in
  let text = Record.encode r in
  Alcotest.(check int) "one line per field" (List.length r)
    (List.length (String.split_on_char '\n' text) - 1);
  Alcotest.check decoded "round-trip" (Ok r) (Record.decode text);
  Alcotest.(check (option string)) "find" (Some "odd name= with spaces")
    (Record.find "name" r);
  Alcotest.(check (list string)) "all, in order" [ inner; "" ]
    (Record.all "incident" r);
  let back = Result.get_ok (Record.decode text) in
  Alcotest.check decoded "nested record"
    (Ok [ ("pass", "squash"); ("message", "a\tb\nc") ])
    (Record.decode (Option.get (Record.find "incident" back)));
  Alcotest.check decoded "blank lines skipped"
    (Ok [ ("ii", "4"); ("len", "9") ])
    (Record.decode "\nii=4\n\nlen=9\n\n");
  Alcotest.(check (option int)) "int" (Some 4)
    (Record.int "ii" [ ("ii", "4") ]);
  Alcotest.(check (option int)) "int rejects text" None
    (Record.int "ii" [ ("ii", "four") ]);
  Alcotest.check decoded "line without '='" (Error "no field here")
    (Record.decode "ii=4\nno field here\nlen=9");
  Alcotest.check decoded "bad escape" (Error "note=\\q")
    (Record.decode "ii=4\nnote=\\q")

(* Every payload a cold IIR row and a cold IIR plan leave in a store,
   with its kind. *)
let stored_payloads =
  lazy
    (let s = open_fresh () in
     ignore (E.run_benchmark ~ctx:(Helpers.ctx ~store:s ()) ~jobs:1 (iir ()));
     let b = iir () in
     ignore
       (P.plan ~ctx:(Helpers.ctx ~store:s ()) ~jobs:1 b.R.b_program
          ~outer_index:b.R.b_outer_index ~inner_index:b.R.b_inner_index
          ~benchmark:b.R.b_name);
     List.sort compare (object_files s)
     |> List.map (fun path ->
            (* objects/<kind>/<k0k1>/<key> *)
            let key = Filename.basename path in
            let kind =
              Filename.basename (Filename.dirname (Filename.dirname path))
            in
            match Store.read s ~kind ~key with
            | Store.Hit payload -> (kind, payload)
            | Store.Miss | Store.Bad _ -> Alcotest.failf "%s unreadable" path))

(* The stored schedules and plan rows are records with the documented
   fields, and re-encode to their own bytes. *)
let test_stored_payloads_are_records () =
  let payloads = Lazy.force stored_payloads in
  let kinds = List.sort_uniq compare (List.map fst payloads) in
  Alcotest.(check (list string)) "kinds" [ "plan-row"; "schedule" ] kinds;
  let report_keys =
    [ "name"; "ii"; "len"; "ops"; "oprows"; "regs"; "area"; "mem"; "iters";
      "cycles" ]
  in
  List.iter
    (fun (kind, payload) ->
      match Record.decode payload with
      | Error line -> Alcotest.failf "%s payload: bad line %S" kind line
      | Ok r ->
        Alcotest.(check string) (kind ^ " re-encodes") payload
          (Record.encode r);
        let keys =
          List.filter (fun k -> k <> "incident" && k <> "note") (List.map fst r)
        in
        if kind = "schedule" then
          Alcotest.(check (list string)) "schedule fields"
            [ "ii"; "len"; "times" ] keys
        else if keys <> [ "error" ] then
          Alcotest.(check (list string)) "plan-row fields" report_keys keys)
    payloads

let mutate rng payload =
  let n = String.length payload in
  let at = Random.State.int rng (n + 1) in
  let byte () = String.make 1 (Char.chr (Random.State.int rng 256)) in
  let pick = [| "="; "\n"; "\\"; "\\0"; "\\x"; "\""; "" |] in
  let ins () =
    match Random.State.int rng 3 with
    | 0 -> byte ()
    | _ -> pick.(Random.State.int rng (Array.length pick))
  in
  let cut = min (n - at) (Random.State.int rng 4) in
  String.sub payload 0 at ^ ins ()
  ^ String.sub payload (at + cut) (n - at - cut)

(* Byte mutants of real payloads decode to a value or an [Error]:
   decode never raises, whatever a store file holds. *)
let test_record_decode_mutants =
  QCheck.Test.make ~name:"record decode on mutants" ~count:2000
    QCheck.(pair small_nat int)
    (fun (which, seed) ->
      let payloads = Array.of_list (Lazy.force stored_payloads) in
      let _, payload = payloads.(which mod Array.length payloads) in
      let rng = Random.State.make [| seed |] in
      let mutant = ref payload in
      for _ = 1 to 1 + Random.State.int rng 4 do
        mutant := mutate rng !mutant
      done;
      match Record.decode !mutant with Ok _ | Error _ -> true)

(* --- end to end: cold vs warm --- *)

let render row = Fmt.str "%a%a" E.pp_table_6_2 [ row ] E.pp_table_6_3 [ row ]

let versions = [ N.Original; N.Pipelined; N.Squashed 2; N.Jammed 2 ]

(* One IIR row on [store], with the counters of a fresh sink. *)
let run_row ?(cache_verify = false) store =
  let trace = Instrument.create () in
  let row =
    E.run_benchmark
      ~ctx:(Helpers.ctx ~store ~cache_verify ~trace ())
      ~versions ~jobs:1 (iir ())
  in
  (row, counter trace)

let test_warm_run_identical_and_served () =
  let s = open_fresh () in
  let cold, _ = run_row s in
  Alcotest.(check bool) "cold run populated the store" true
    ((Store.stats s).Store.st_writes > 0);
  let warm, counter = run_row s in
  Alcotest.(check string) "warm byte-identical to cold" (render cold)
    (render warm);
  let hits = counter "cu.store-hit" and misses = counter "cu.store-miss" in
  Alcotest.(check bool)
    (Printf.sprintf "warm artifacts served from the store (%d/%d)" hits
       (hits + misses))
    true
    (hits > 0 && misses = 0)

(* A Table 6.2 row stores exactly one artifact per cell, its kernel
   schedule: the report is assembled from it on every run.  A warm
   rerun is served entirely from those entries and publishes nothing. *)
let test_row_stores_one_schedule_per_cell () =
  let s = open_fresh () in
  let run () =
    let trace = Instrument.create () in
    let row =
      E.run_benchmark ~ctx:(Helpers.ctx ~store:s ~trace ()) ~jobs:1 (iir ())
    in
    (row, counter trace)
  in
  let cold, _ = run () in
  let cells = List.length cold.E.br_cells in
  Alcotest.(check bool) "the row has cells" true (cells > 0);
  let schedules_dir =
    Filename.concat (Filename.concat (Store.dir s) "objects") "schedule"
  in
  let files = object_files s in
  Alcotest.(check int) "one entry per cell" cells (List.length files);
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " is a schedule") true
        (Helpers.contains ~sub:schedules_dir path))
    files;
  let before = Store.stats s in
  Alcotest.(check int) "one write per cell" cells before.Store.st_writes;
  let warm, counter = run () in
  let after = Store.stats s in
  Alcotest.(check string) "warm byte-identical to cold" (render cold)
    (render warm);
  Alcotest.(check int) "warm: every entry a hit" cells
    (after.Store.st_hits - before.Store.st_hits);
  Alcotest.(check int) "warm: no store miss" 0
    (after.Store.st_misses - before.Store.st_misses);
  Alcotest.(check int) "warm: nothing written" 0
    (after.Store.st_writes - before.Store.st_writes);
  Alcotest.(check (pair int int)) "warm: unit counters agree" (cells, 0)
    (counter "cu.store-hit", counter "cu.store-miss")

(* One IIR plan on [store] (storeless by default), with the span table
   and counters of a fresh sink. *)
let plan_iir ?store () =
  let b = iir () in
  let trace = Instrument.create () in
  let plan =
    P.plan ~ctx:(Helpers.ctx ?store ~trace ()) ~jobs:1 b.R.b_program
      ~outer_index:b.R.b_outer_index ~inner_index:b.R.b_inner_index
      ~benchmark:b.R.b_name
  in
  let calls name =
    match List.assoc_opt name (Instrument.spans trace) with
    | Some st -> st.Instrument.calls
    | None -> 0
  in
  (plan, calls, counter trace)

(* IIR's enabling prefixes reach two distinct programs, so a cold plan
   squashes and schedules each once per factor; a warm plan is served
   whole from its plan rows, which stay keyed by the unprefixed program
   (keying them by the prefixed one would miss every row). *)
let test_plan_shares_work_and_warm_hits () =
  let _, calls, _ = plan_iir () in
  Alcotest.(check int) "schedules: 2 baselines + 2 programs x 3 factors" 8
    (calls "schedule");
  Alcotest.(check int) "squashes: 2 programs x 3 factors" 6
    (calls "pass.squash");
  let s = open_fresh () in
  let cold, _, _ = plan_iir ~store:s () in
  let warm, calls, counter = plan_iir ~store:s () in
  Alcotest.(check string) "warm plan byte-identical to cold"
    (Fmt.str "%a" P.pp cold) (Fmt.str "%a" P.pp warm);
  Alcotest.(check int) "warm: no squash" 0 (calls "pass.squash");
  Alcotest.(check int) "warm: no schedule" 0 (calls "schedule");
  Alcotest.(check int) "warm: every row a plan-row hit"
    (List.length warm.P.p_rows) (counter "cu.store-hit");
  Alcotest.(check int) "warm: no miss" 0 (counter "cu.store-miss")

(* IIR jam(8)'s greedy placement fails at its lower bound, so a tiny
   exact budget leaves its II unproven: the schedule's note becomes an
   incident, and a warm run replays it byte for byte from the store. *)
let test_warm_not_proven_note_replayed () =
  let s = open_fresh () in
  let b = iir () in
  let incidents () =
    let trace = Instrument.create () in
    let cu =
      Uas_pass.Cu.make
        ~ctx:(Helpers.ctx ~store:s ~trace ())
        b.R.b_program ~outer_index:b.R.b_outer_index
        ~inner_index:b.R.b_inner_index
    in
    let passes =
      N.transform_passes (N.Jammed 8)
      @ [ Uas_pass.Stages.dfg_build ();
          Uas_pass.Stages.schedule ~exact_effort:10 ~pipelined:true () ]
    in
    match Uas_pass.Pass.run cu passes with
    | Ok cu ->
      ( List.map Uas_pass.Diag.to_string (Uas_pass.Cu.incidents cu),
        counter trace "cu.store-hit" )
    | Error d -> Alcotest.failf "jam(8): %s" (Uas_pass.Diag.to_string d)
  in
  let cold, _ = incidents () in
  let warm, hits = incidents () in
  (match cold with
  | [ m ] ->
    Alcotest.(check bool) ("cold note: " ^ m) true
      (Helpers.contains
         ~sub:"not proven optimal: exact budget exhausted at II 10" m)
  | _ -> Alcotest.failf "expected one incident, got %d" (List.length cold));
  Alcotest.(check (list string)) "warm replays the note" cold warm;
  Alcotest.(check int) "schedule served from the store" 1 hits

let test_verify_mode_clean () =
  let s = open_fresh () in
  let cold, _ = run_row s in
  let again, counter = run_row ~cache_verify:true s in
  Alcotest.(check string) "verify run byte-identical" (render cold)
    (render again);
  Alcotest.(check bool) "recomputations matched the cache" true
    (counter "cu.store-verify-ok" > 0);
  Alcotest.(check int) "no mismatches" 0 (counter "cu.store-verify-mismatch")

(* Poison a cached schedule (valid header, wrong content: the lie a
   checksum cannot catch) — verify mode recomputes, flags the
   mismatch as an incident, and replaces the entry. *)
let test_verify_mode_catches_poisoned_entry () =
  let s = open_fresh () in
  let cold = render (fst (run_row s)) in
  let schedules_dir =
    Filename.concat (Filename.concat (Store.dir s) "objects") "schedule"
  in
  let poisoned = ref 0 in
  List.iter
    (fun path ->
      if Helpers.contains ~sub:schedules_dir path then begin
        let contents = read_file path in
        (* rewrite the payload under a truthful header *)
        match String.index_opt contents '\n' with
        | None -> ()
        | Some _ ->
          let sep = "\n--\n" in
          let rec find i =
            if i + 4 > String.length contents then None
            else if String.equal (String.sub contents i 4) sep then Some i
            else find (i + 1)
          in
          (match find 0 with
          | None -> ()
          | Some i ->
            let header = String.sub contents 0 i in
            let payload =
              String.sub contents (i + 4)
                (String.length contents - i - 4)
            in
            let payload' = payload ^ "-poisoned" in
            let header' =
              header
              |> String.split_on_char '\n'
              |> List.map (fun line ->
                     if String.length line > 4
                        && String.equal (String.sub line 0 4) "md5 "
                     then
                       "md5 " ^ Digest.to_hex (Digest.string payload')
                     else if
                       String.length line > 4
                       && String.equal (String.sub line 0 4) "len "
                     then "len " ^ string_of_int (String.length payload')
                     else line)
              |> String.concat "\n"
            in
            write_file path (header' ^ sep ^ payload');
            incr poisoned)
      end)
    (object_files s);
  Alcotest.(check bool) "some schedules poisoned" true (!poisoned > 0);
  let row, counter = run_row ~cache_verify:true s in
  Alcotest.(check string)
    "cells still computed fresh (byte-identical body)" cold
    (render
       { row with
         E.br_cells =
           List.map
             (fun c -> { c with E.c_incidents = [] })
             row.E.br_cells });
  Alcotest.(check bool) "mismatch counted" true
    (counter "cu.store-verify-mismatch" > 0);
  Alcotest.(check bool) "mismatch is an incident" true
    (List.exists
       (fun (c : E.cell) ->
         List.exists
           (fun d ->
             Helpers.contains ~sub:"differs from recomputation"
               (Uas_pass.Diag.to_string d))
           c.E.c_incidents)
       row.E.br_cells)

(* --- multi-process locking --- *)

(* Spawn a child process that takes the store's advisory file lock
   (fcntl locks are per-process, so same-process contention cannot
   exercise this path, and [Unix.fork] is unavailable once other
   suites have spawned domains).  The child signals readiness on its
   stdout and holds the lock until its stdin reaches EOF. *)
let spawn_lock_holder lock_path =
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "lock_holder.exe"
  in
  (* cloexec: the child must not inherit the parent ends, or closing
     [in_w] here would never deliver its stdin EOF ([create_process]
     dup2s the two ends it is given, which clears cloexec) *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process helper [| helper; lock_path |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  ignore (Unix.read out_r (Bytes.create 1) 0 1);
  Unix.close out_r;
  let release () =
    (try Unix.close in_w with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  release

let test_evict_skips_under_foreign_lock () =
  let s = open_fresh ~max_bytes:4096 () in
  let payload = String.make 200 'x' in
  for i = 1 to 40 do
    match
      Store.write s ~kind:"demo" ~key:(Store.key [ string_of_int i ]) payload
    with
    | Ok () -> ()
    | Error m -> Alcotest.failf "write %d: %s" i m
  done;
  let before = (Store.stats s).Store.st_evict_skipped in
  let release = spawn_lock_holder (Store.lock_file s) in
  Fun.protect ~finally:release (fun () ->
      Store.evict_now s;
      let st = Store.stats s in
      Alcotest.(check int) "sweep skipped, not an error" (before + 1)
        st.Store.st_evict_skipped;
      let rendered = Format.asprintf "%a" Store.pp_stats s in
      Alcotest.(check bool) "pp_stats reports the skip" true
        (Helpers.contains ~sub:"skipped" rendered));
  (* lock released: the next sweep proceeds without another skip *)
  Store.evict_now s;
  Alcotest.(check int) "freed lock sweeps again" (before + 1)
    (Store.stats s).Store.st_evict_skipped

let test_write_waits_for_foreign_lock () =
  let s = open_fresh () in
  let release = spawn_lock_holder (Store.lock_file s) in
  let releaser = Thread.create (fun () -> Thread.delay 0.4; release ()) () in
  let t0 = Unix.gettimeofday () in
  (match Store.write s ~kind:"demo" ~key:(Store.key [ "held" ]) "payload" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write under a foreign lock errored: %s" m);
  let dt = Unix.gettimeofday () -. t0 in
  Thread.join releaser;
  Alcotest.(check bool)
    (Printf.sprintf "publish waited for the lock (%.3fs)" dt)
    true (dt >= 0.3);
  match Store.read s ~kind:"demo" ~key:(Store.key [ "held" ]) with
  | Store.Hit p -> Alcotest.(check string) "entry intact" "payload" p
  | Store.Miss | Store.Bad _ -> Alcotest.fail "entry lost under contention"

let test_scan_reports_contents () =
  let s = open_fresh () in
  Alcotest.(check (pair int int)) "fresh store is empty" (0, 0) (Store.scan s);
  List.iter
    (fun k ->
      match Store.write s ~kind:"demo" ~key:(Store.key [ k ]) ("v-" ^ k) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "write %s: %s" k m)
    [ "a"; "b"; "c" ];
  let count, bytes = Store.scan s in
  Alcotest.(check int) "one object per write" 3 count;
  Alcotest.(check bool) "bytes accounted" true (bytes > 0)

(* A schedule's key names the cost model (the operator delays every II
   depends on): an entry stored under this cost-model version is
   served, one stored under any other is a miss.  The context below is
   the schedule key's exact parts, in order. *)
let test_schedule_key_names_cost_model () =
  let b = iir () in
  let unit ?trace s =
    Uas_pass.Cu.make
      ~ctx:(Helpers.ctx ~store:s ?trace ())
      b.R.b_program ~outer_index:b.R.b_outer_index
      ~inner_index:b.R.b_inner_index
  in
  let passes =
    [ Uas_pass.Stages.dfg_build ();
      Uas_pass.Stages.schedule ~pipelined:true () ]
  in
  let scheduled cu =
    match Uas_pass.Pass.run cu passes with
    | Ok cu -> Option.get (Uas_pass.Cu.schedule cu)
    | Error d -> Alcotest.failf "schedule: %s" (Uas_pass.Diag.to_string d)
  in
  let sched = scheduled (unit (open_fresh ())) in
  let hits_under version =
    let s = open_fresh () in
    Uas_pass.Cu.store_put (unit s) ~kind:"schedule"
      ~context:
        [ "target=" ^ Uas_hw.Datapath.fingerprint Uas_hw.Datapath.default;
          "cost-model=" ^ string_of_int version;
          "kernel=" ^ b.R.b_inner_index;
          "pipelined=true";
          "effort=" ^ string_of_int Uas_dfg.Sched.default_effort;
          "exact-effort=" ^ string_of_int Uas_dfg.Sched.default_exact_effort ]
      [ ("ii", string_of_int sched.Uas_dfg.Sched.s_ii);
        ("len", string_of_int sched.Uas_dfg.Sched.s_length);
        ( "times",
          String.concat ","
            (Array.to_list (Array.map string_of_int sched.Uas_dfg.Sched.s_times))
        ) ];
    let trace = Instrument.create () in
    ignore (scheduled (unit ~trace s));
    counter trace "cu.store-hit"
  in
  let v = Uas_hw.Estimate.cost_model_version in
  Alcotest.(check int) "this cost model's entry is served" 1 (hits_under v);
  Alcotest.(check int) "another cost model's entry is a miss" 0
    (hits_under (v + 1))

(* [test/store_v4] holds the four schedules of [run_row] as the build
   before the digest keys wrote them: format version 4, keyed by the
   program text.  Read now, that store gives clean misses — the key
   names the format version, so no old entry is read, none is Bad,
   none raises an incident and none is deleted. *)
let test_v4_store_clean_misses () =
  let s = open_fresh () in
  let rec copy src dst =
    if Sys.is_directory src then (
      if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
      Array.iter
        (fun n -> copy (Filename.concat src n) (Filename.concat dst n))
        (Sys.readdir src))
    else write_file dst (read_file src)
  in
  copy "store_v4" (Store.dir s);
  let old = List.length (object_files s) in
  Alcotest.(check int) "fixture entries" 4 old;
  let row, counter = run_row s in
  let st = Store.stats s in
  Alcotest.(check (list int)) "hits, misses, bad, writes" [ 0; 4; 0; 4 ]
    [ st.Store.st_hits; st.Store.st_misses; st.Store.st_bad;
      st.Store.st_writes ];
  Alcotest.(check int) "no incident" 0 (counter "cu.incident");
  List.iter
    (fun (c : E.cell) ->
      Alcotest.(check int) "no cell incident" 0 (List.length c.E.c_incidents))
    row.E.br_cells;
  Alcotest.(check string) "same row as on an empty store"
    (render (fst (run_row (open_fresh ()))))
    (render row);
  Alcotest.(check int) "old entries kept" (old + 4)
    (List.length (object_files s))

let suite =
  [ Alcotest.test_case "write/read round-trip" `Quick
      (removing_stores test_write_read_roundtrip);
    Alcotest.test_case "unknown key is a miss" `Quick
      (removing_stores test_unknown_key_is_miss);
    Alcotest.test_case "key hashes part boundaries" `Quick
      (removing_stores test_key_separates_parts);
    Alcotest.test_case "flipped bit classifies as Bad" `Quick
      (removing_stores test_flipped_bit_is_bad);
    Alcotest.test_case "truncated entry classifies as Bad" `Quick
      (removing_stores test_truncated_entry_is_bad);
    Alcotest.test_case "entry under the wrong key is Bad" `Quick
      (removing_stores test_entry_under_wrong_key_is_bad);
    Alcotest.test_case "eviction bounds the store size" `Quick
      (removing_stores test_eviction_bounds_size);
    QCheck_alcotest.to_alcotest test_record_roundtrip;
    Alcotest.test_case "record values pass verbatim" `Quick
      (removing_stores test_record_values_verbatim);
    Alcotest.test_case "stored payloads are records" `Quick
      (removing_stores test_stored_payloads_are_records);
    QCheck_alcotest.to_alcotest test_record_decode_mutants;
    Alcotest.test_case "warm run byte-identical, served from store" `Quick
      (removing_stores test_warm_run_identical_and_served);
    Alcotest.test_case "row stores one schedule per cell, warm writes none"
      `Quick (removing_stores test_row_stores_one_schedule_per_cell);
    Alcotest.test_case "warm run replays a not-proven note" `Quick
      (removing_stores test_warm_not_proven_note_replayed);
    Alcotest.test_case "plan shares work, warm plan all hits" `Quick
      (removing_stores test_plan_shares_work_and_warm_hits);
    Alcotest.test_case "verify mode: clean cache, no incidents" `Quick
      (removing_stores test_verify_mode_clean);
    Alcotest.test_case "verify mode: poisoned entry flagged" `Quick
      (removing_stores test_verify_mode_catches_poisoned_entry);
    Alcotest.test_case "eviction skips under a foreign lock" `Quick
      (removing_stores test_evict_skips_under_foreign_lock);
    Alcotest.test_case "publish waits for a foreign lock" `Quick
      (removing_stores test_write_waits_for_foreign_lock);
    Alcotest.test_case "scan reports the store contents" `Quick
      (removing_stores test_scan_reports_contents);
    Alcotest.test_case "schedule key names the cost model" `Quick
      (removing_stores test_schedule_key_names_cost_model);
    Alcotest.test_case "format-4 store gives clean misses" `Quick
      (removing_stores test_v4_store_clean_misses) ]
