(* Shared fixtures and assertions for the test suites. *)

open Uas_ir
module B = Builder

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- run contexts --- *)

(* A run context with no store, fault plan or sink unless given. *)
let ctx ?store ?(cache_verify = false) ?plan ?trace () =
  let faults =
    match Option.map Uas_runtime.Fault.parse plan with
    | None -> Uas_runtime.Fault.none
    | Some (Ok f) -> f
    | Some (Error m) -> Alcotest.failf "bad fault plan: %s" m
  in
  { (Uas_runtime.Ctx.default ()) with store; cache_verify; faults;
    trace = Option.value trace ~default:Uas_runtime.Instrument.off }

(* --- reference programs --- *)

(* Figure 2.1: the f/g nested loop.  f and g are modeled as 1-cycle
   ALU operations (f = add-and-mask, g = double-and-xor), preserving
   the inter-iteration recurrence that blocks inner pipelining. *)
let fg_loop ~m ~n : Stmt.program =
  B.program "fg_loop"
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint);
              ("b", Types.Tint) ]
    ~arrays:[ B.input "data_in" m; B.output "data_out" m ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.("a" <-- load "data_in" (v "i"));
          B.for_ "j" ~hi:(B.int n)
            [ B.("b" <-- band (v "a" + int 3) (int 255));
              B.("a" <-- bxor (v "b" + v "b") (int 21)) ];
          B.store "data_out" (B.v "i") (B.v "a") ]
    ]

(* Figure 4.1: the example used for the DFG/stage illustrations; uses
   both loop indices and a loop-invariant scalar k. *)
let ch4_loop ~m ~n : Stmt.program =
  B.program "ch4_loop"
    ~params:[ ("k", Types.Tint) ]
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint);
              ("b", Types.Tint); ("c", Types.Tint) ]
    ~arrays:[ B.input "src" m; B.output "dst" m ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.("a" <-- load "src" (v "i"));
          B.for_ "j" ~hi:(B.int n)
            [ B.("b" <-- v "a" + v "i");
              B.("c" <-- v "b" - v "j");
              B.("a" <-- band (v "c") (int 15) * v "k") ];
          B.store "dst" (B.v "i") (B.v "a") ]
    ]

(* A nest with memory accesses in the inner body (stream transform with
   a per-block table), exercising memory legality and ResMII. *)
let memory_loop ~m ~n : Stmt.program =
  B.program "memory_loop"
    ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("acc", Types.Tint);
              ("t", Types.Tint) ]
    ~arrays:[ B.input "src" (m * n); B.input "tab" 256; B.output "dst" m ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.("acc" <-- int 0);
          B.for_ "j" ~hi:(B.int n)
            [ B.("t" <-- load "src" ((v "i" * int n) + v "j"));
              B.("acc" <-- v "acc" + load "tab" (band (bxor (v "t") (v "acc")) (int 255))) ];
          B.store "dst" (B.v "i") (B.v "acc") ]
    ]

(* --- workloads --- *)

let int_array rng len bound =
  Array.init len (fun _ -> Types.VInt (Random.State.int rng bound))

let float_array rng len =
  Array.init len (fun _ ->
      Types.VFloat (Random.State.float rng 2.0 -. 1.0))

(** A random workload for [p]: random contents for every input array,
    random small ints / unit floats for params. *)
let random_workload ?(seed = 42) (p : Stmt.program) : Interp.workload =
  let rng = Random.State.make [| seed |] in
  let arrays =
    List.filter_map
      (fun (d : Stmt.array_decl) ->
        match d.a_kind with
        | Stmt.Input ->
          Some
            ( d.a_name,
              match d.a_ty with
              | Types.Tint -> int_array rng d.a_size 1024
              | Types.Tfloat -> float_array rng d.a_size )
        | Stmt.Output | Stmt.Local -> None)
      p.arrays
  in
  let scalars =
    List.map
      (fun (v, ty) ->
        ( v,
          match ty with
          | Types.Tint -> Types.VInt (1 + Random.State.int rng 7)
          | Types.Tfloat -> Types.VFloat (Random.State.float rng 1.0) ))
      p.params
  in
  Interp.workload ~scalars ~arrays ()

(* --- assertions --- *)

(** Check that [q] computes the same outputs as [p] on several random
    workloads, and that [q] is well-formed. *)
let assert_equivalent ?(seeds = [ 1; 2; 3 ]) ~msg (p : Stmt.program)
    (q : Stmt.program) : unit =
  (match Validate.errors q with
  | [] -> ()
  | errs ->
    Alcotest.failf "%s: transformed program invalid:@\n%a@\n%a" msg
      (Fmt.list Validate.pp_error) errs Pp.pp_program q);
  List.iter
    (fun seed ->
      let w = random_workload ~seed p in
      let r1 = Interp.run p w in
      let r2 = Interp.run q w in
      match Interp.diff_outputs r1 r2 with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s (seed %d): %s@\ntransformed:@\n%a" msg seed d
          Pp.pp_program q)
    seeds

let nest_of (p : Stmt.program) outer_index =
  Uas_analysis.Loop_nest.find_by_outer_index p outer_index

(** qcheck arbitrary for small (m, n) loop sizes. *)
let gen_sizes ~m_max ~n_max =
  QCheck.(pair (int_range 1 m_max) (int_range 1 n_max))

(* --- random legal nests for property tests ---

   Generates programs of the squashable shape by construction: the
   outer loop walks independent blocks (read-only inputs, the output
   written at the block index), the inner body is random straight-line
   integer code that only reads variables already defined (or the
   pre-loaded live-ins and the loop indices). *)

(* Random straight-line integer statements over the scalars a..d:
   each assigns one scalar an expression reading only the loop indices,
   already-[defined] scalars, masked "tab" lookups and constants. *)
let gen_straightline ~defined ~n_stmts st =
  let open QCheck.Gen in
  let vars = [| "a"; "b"; "c"; "d" |] in
  let rec gen_expr depth st =
    let leaf () =
      match int_range 0 4 st with
      | 0 -> B.int (int_range (-20) 100 st)
      | 1 -> B.v "i"
      | 2 -> B.v "j"
      | _ ->
        let candidates = !defined in
        B.v (List.nth candidates (int_range 0 (List.length candidates - 1) st))
    in
    if depth = 0 then leaf ()
    else begin
      let d = depth - 1 in
      let sub () = gen_expr d st in
      match int_range 0 7 st with
      | 0 -> B.(sub () + sub ())
      | 1 -> B.(sub () - sub ())
      | 2 -> B.(band (sub ()) (int (int_range 1 4095 st)))
      | 3 -> B.(bxor (sub ()) (sub ()))
      | 4 -> B.(sub () * int (int_range 0 9 st))
      | 5 -> B.(shr (sub ()) (int (int_range 0 6 st)))
      | 6 -> B.select B.(sub () < sub ()) (sub ()) (sub ())
      | _ ->
        (* read-only table lookup with a masked index *)
        B.load "tab" (B.band (sub ()) (B.int 63))
    end
  in
  List.init n_stmts (fun _ ->
      let dst = vars.(int_range 0 3 st) in
      let e = gen_expr (int_range 1 3 st) st in
      if not (List.mem dst !defined) then defined := dst :: !defined;
      B.(dst <-- e))

let gen_nest_program_sized ~m_max ~n_max : Stmt.program QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let m = int_range 1 m_max st in
  let n = int_range 1 n_max st in
  (* a and b are pre-loaded; c, d must be defined before use *)
  let defined = ref [ "a"; "b" ] in
  let body = gen_straightline ~defined ~n_stmts:(int_range 1 6 st) st in
  B.program "gen_nest"
    ~locals:
      [ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint);
        ("b", Types.Tint); ("c", Types.Tint); ("d", Types.Tint) ]
    ~arrays:[ B.input "src" m; B.input "tab" 64; B.output "dst" m ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.("a" <-- load "src" (v "i"));
          B.("b" <-- bxor (v "a") (int 5));
          B.for_ "j" ~hi:(B.int n) body;
          B.store "dst" (B.v "i") (B.v "a") ]
    ]

let gen_nest_program = gen_nest_program_sized ~m_max:10 ~n_max:6

let arbitrary_nest_program =
  QCheck.make gen_nest_program ~print:Pp.program_to_string

(* Differential-testing variant: inner trip counts up to 12 so
   squash(4) and jam(2) transform a multi-slice steady state (not just
   the peel/epilogue), outer counts kept small so interpreter replay of
   every version stays cheap. *)
let gen_diff_nest_program = gen_nest_program_sized ~m_max:6 ~n_max:12

let arbitrary_diff_nest_program =
  QCheck.make gen_diff_nest_program ~print:Pp.program_to_string

(* Perfect-nest variant for the nest rewrites (interchange, flatten,
   tiling): the whole body lives in the inner loop, every scalar read
   is preceded by a definition there, all loads are read-only, and each
   (i, j) iteration writes its own dst cell — so the loops are legally
   reorderable by construction. *)
let gen_perfect_nest_program_sized ~m_max ~n_max : Stmt.program QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let m = int_range 1 m_max st in
  let n = int_range 1 n_max st in
  let defined = ref [ "a"; "b" ] in
  let stmts = gen_straightline ~defined ~n_stmts:(int_range 1 5 st) st in
  B.program "gen_perfect"
    ~locals:
      [ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint);
        ("b", Types.Tint); ("c", Types.Tint); ("d", Types.Tint) ]
    ~arrays:[ B.input "src" (m * n); B.input "tab" 64; B.output "dst" (m * n) ]
    [ B.for_ "i" ~hi:(B.int m)
        [ B.for_ "j" ~hi:(B.int n)
            ([ B.("a" <-- load "src" ((v "i" * int n) + v "j"));
               B.("b" <-- bxor (v "a") (int 5)) ]
            @ stmts
            @ [ B.store "dst" B.((v "i" * int n) + v "j") (B.v "a") ]) ]
    ]

let gen_perfect_nest_program = gen_perfect_nest_program_sized ~m_max:5 ~n_max:5

let arbitrary_perfect_nest_program =
  QCheck.make gen_perfect_nest_program ~print:Pp.program_to_string

(* 3-deep variant for the depth-general paths: the outer (i, j) pair
   walks independent cells through the row pointer p (a genuine
   cross-iteration induction variable, so flatten + induction analysis
   keeps the accesses affine), the innermost k loop is random
   straight-line code.  About a third of the programs get an i-level
   band, making the (i, j) pair imperfect — flatten must then reject
   it cleanly rather than transform it. *)
let gen_nest3_program_sized ~m_max ~n_max ~k_max : Stmt.program QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let m = int_range 1 m_max st in
  let n = int_range 1 n_max st in
  let k = int_range 1 k_max st in
  let defined = ref [ "a"; "b" ] in
  let body = gen_straightline ~defined ~n_stmts:(int_range 1 5 st) st in
  let i_band =
    if int_range 0 2 st = 0 then [ B.("c" <-- v "i" * B.int n) ] else []
  in
  B.program "gen_nest3"
    ~locals:
      [ ("i", Types.Tint); ("j", Types.Tint); ("k", Types.Tint);
        ("p", Types.Tint); ("a", Types.Tint); ("b", Types.Tint);
        ("c", Types.Tint); ("d", Types.Tint) ]
    ~arrays:
      [ B.input "src" (m * n); B.input "tab" 64; B.output "dst" (m * n) ]
    [ B.("p" <-- int 0);
      B.for_ "i" ~hi:(B.int m)
        (i_band
        @ [ B.for_ "j" ~hi:(B.int n)
              [ B.("a" <-- load "src" (v "p"));
                B.("b" <-- bxor (v "a") (int 5));
                B.for_ "k" ~hi:(B.int k) body;
                B.store "dst" (B.v "p") (B.v "a");
                B.("p" <-- v "p" + int 1) ]
          ])
    ]

let gen_nest3_program = gen_nest3_program_sized ~m_max:4 ~n_max:4 ~k_max:6

let arbitrary_nest3_program =
  QCheck.make gen_nest3_program ~print:Pp.program_to_string
