(* Reference interpreter.

   Runs a program on a workload (scalar parameters + input-array
   contents) and returns the observable outputs: the contents of every
   [Output] array plus the final scalar environment.  All transformation
   correctness tests compare these results bit-for-bit against the
   original program.

   The interpreter also acts as the profiler behind the Table 1.1
   experiment: it attributes an estimated cycle cost (the default
   operator delays) to every enclosing loop, so we can report the
   fraction of execution time spent in each loop. *)

open Types

type workload = {
  w_scalars : (var * value) list;       (** values for [params] *)
  w_arrays : (array_id * value array) list;  (** contents for [Input] arrays *)
}

let workload ?(scalars = []) ?(arrays = []) () =
  { w_scalars = scalars; w_arrays = arrays }

type loop_stats = {
  mutable trips : int;   (** total iterations executed *)
  mutable cycles : int;  (** estimated cycles spent inside (inclusive) *)
}

type profile = {
  mutable total_cycles : int;
  mutable stmts_executed : int;
  mutable mem_refs : int;
  loops : (string, loop_stats) Hashtbl.t;  (** keyed by loop path *)
}

let new_profile () =
  { total_cycles = 0; stmts_executed = 0; mem_refs = 0; loops = Hashtbl.create 16 }

type result = {
  outputs : (array_id * value array) list;
  final_scalars : (var * value) list;
  profile : profile;
}

exception Stuck of string
exception Out_of_fuel

let stuck fmt = Fmt.kstr (fun s -> raise (Stuck s)) fmt

type state = {
  scalars : (var, value) Hashtbl.t;
  arrays : (array_id, value array) Hashtbl.t;
  roms : (rom_id, int array) Hashtbl.t;
  prof : profile;
  mutable fuel : int;
  mutable loop_stack : loop_stats list;
}

let zero_of = function Tint -> VInt 0 | Tfloat -> VFloat 0.0

let init_state (p : Stmt.program) (w : workload) ~fuel =
  let scalars = Hashtbl.create 32 in
  List.iter (fun (v, t) -> Hashtbl.replace scalars v (zero_of t))
    (Stmt.scalar_decls p);
  List.iter
    (fun (v, value) ->
      match Stmt.lookup_scalar_ty p v with
      | None -> stuck "workload sets undeclared scalar %s" v
      | Some t when not (equal_ty t (ty_of_value value)) ->
        stuck "workload sets %s with wrong-typed value" v
      | Some _ -> Hashtbl.replace scalars v value)
    w.w_scalars;
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun (d : Stmt.array_decl) ->
      let contents =
        match (d.a_kind, List.assoc_opt d.a_name w.w_arrays) with
        | Stmt.Input, Some data ->
          if Array.length data <> d.a_size then
            stuck "workload array %s has length %d, declared %d" d.a_name
              (Array.length data) d.a_size;
          Array.iter
            (fun value ->
              if not (equal_ty (ty_of_value value) d.a_ty) then
                stuck "workload array %s has wrong-typed element" d.a_name)
            data;
          Array.copy data
        | Stmt.Input, None -> Array.make d.a_size (zero_of d.a_ty)
        | (Stmt.Output | Stmt.Local), _ -> Array.make d.a_size (zero_of d.a_ty)
      in
      Hashtbl.replace arrays d.a_name contents)
    p.arrays;
  let roms = Hashtbl.create 8 in
  List.iter (fun (r : Stmt.rom_decl) -> Hashtbl.replace roms r.r_name r.r_data)
    p.roms;
  { scalars; arrays; roms; prof = new_profile (); fuel; loop_stack = [] }

let charge st cycles =
  st.prof.total_cycles <- st.prof.total_cycles + cycles;
  List.iter (fun ls -> ls.cycles <- ls.cycles + cycles) st.loop_stack

let rec eval st (e : Expr.t) : value =
  match e with
  | Int n -> VInt n
  | Float f -> VFloat f
  | Var v -> (
    match Hashtbl.find_opt st.scalars v with
    | Some value -> value
    | None -> stuck "read of undeclared scalar %s" v)
  | Load (a, i) -> (
    let idx = eval_int st i in
    st.prof.mem_refs <- st.prof.mem_refs + 1;
    charge st (Opinfo.cycle_cost Opinfo.Op_load);
    match Hashtbl.find_opt st.arrays a with
    | None -> stuck "load from undeclared array %s" a
    | Some data ->
      if idx < 0 || idx >= Array.length data then
        stuck "load %s[%d] out of bounds (size %d)" a idx (Array.length data)
      else data.(idx))
  | Rom (r, i) -> (
    let idx = eval_int st i in
    charge st (Opinfo.cycle_cost Opinfo.Op_rom);
    match Hashtbl.find_opt st.roms r with
    | None -> stuck "lookup in undeclared rom %s" r
    | Some data ->
      if idx < 0 || idx >= Array.length data then
        stuck "rom lookup %s(%d) out of bounds (size %d)" r idx
          (Array.length data)
      else VInt data.(idx))
  | Unop (o, x) -> (
    let vx = eval st x in
    charge st (Opinfo.cycle_cost (Opinfo.Op_unop o));
    try Expr.eval_unop o vx with Ir_error m -> stuck "%s" m)
  | Binop (o, l, r) -> (
    let vl = eval st l in
    let vr = eval st r in
    charge st (Opinfo.cycle_cost (Opinfo.Op_binop o));
    try Expr.eval_binop o vl vr with Ir_error m -> stuck "%s" m)
  | Select (c, t, f) ->
    (* both arms evaluate, as in the hardware realization of a mux *)
    let vc = eval_int st c in
    let vt = eval st t in
    let vf = eval st f in
    charge st (Opinfo.cycle_cost Opinfo.Op_select);
    if vc <> 0 then vt else vf

and eval_int st e =
  match eval st e with
  | VInt n -> n
  | VFloat _ -> stuck "expected an integer value for %s" (Pp.expr_to_string e)

let burn st =
  if st.fuel <= 0 then raise Out_of_fuel;
  st.fuel <- st.fuel - 1;
  st.prof.stmts_executed <- st.prof.stmts_executed + 1

let loop_stats_for st path =
  match Hashtbl.find_opt st.prof.loops path with
  | Some ls -> ls
  | None ->
    let ls = { trips = 0; cycles = 0 } in
    Hashtbl.replace st.prof.loops path ls;
    ls

let rec exec st path (s : Stmt.t) : unit =
  burn st;
  match s with
  | Assign (x, e) ->
    let value = eval st e in
    if not (Hashtbl.mem st.scalars x) then
      stuck "assignment to undeclared scalar %s" x;
    charge st (Opinfo.cycle_cost Opinfo.Op_move);
    Hashtbl.replace st.scalars x value
  | Store (a, i, e) -> (
    let idx = eval_int st i in
    let value = eval st e in
    st.prof.mem_refs <- st.prof.mem_refs + 1;
    charge st (Opinfo.cycle_cost Opinfo.Op_store);
    match Hashtbl.find_opt st.arrays a with
    | None -> stuck "store to undeclared array %s" a
    | Some data ->
      if idx < 0 || idx >= Array.length data then
        stuck "store %s[%d] out of bounds (size %d)" a idx (Array.length data)
      else data.(idx) <- value)
  | If (c, t, e) ->
    let vc = eval_int st c in
    charge st 1;
    exec_block st path (if vc <> 0 then t else e)
  | For l ->
    let lo = eval_int st l.lo in
    let hi = eval_int st l.hi in
    let lpath = path ^ "/" ^ l.index in
    let ls = loop_stats_for st lpath in
    st.loop_stack <- ls :: st.loop_stack;
    let rec iterate i =
      if i < hi then begin
        Hashtbl.replace st.scalars l.index (VInt i);
        ls.trips <- ls.trips + 1;
        exec_block st lpath l.body;
        iterate (i + l.step)
      end
    in
    let finish () =
      st.loop_stack <-
        (match st.loop_stack with [] -> [] | _ :: rest -> rest)
    in
    (try iterate lo with e -> finish (); raise e);
    finish ();
    (* the index keeps its exit value, like a C loop variable *)
    let exit_value = if hi <= lo then lo else lo + ((hi - lo + l.step - 1) / l.step) * l.step in
    Hashtbl.replace st.scalars l.index (VInt exit_value)

and exec_block st path stmts = List.iter (exec st path) stmts

let default_fuel = 50_000_000

(** Run [p] on workload [w].  @raise Stuck on runtime errors,
    [Out_of_fuel] past [fuel] executed statements. *)
let run ?(fuel = default_fuel) (p : Stmt.program) (w : workload) : result =
  let st = init_state p w ~fuel in
  exec_block st "" p.body;
  let outputs =
    List.filter_map
      (fun (d : Stmt.array_decl) ->
        match d.a_kind with
        | Stmt.Output -> Some (d.a_name, Hashtbl.find st.arrays d.a_name)
        | Stmt.Input | Stmt.Local -> None)
      p.arrays
  in
  let final_scalars =
    List.map
      (fun (v, _) -> (v, Hashtbl.find st.scalars v))
      (Stmt.scalar_decls p)
  in
  { outputs; final_scalars; profile = st.prof }

(** Bit-for-bit equality of the output arrays of two runs (order of
    declaration does not matter). *)
let outputs_equal (a : result) (b : result) : bool =
  let sorted r =
    List.sort (fun (x, _) (y, _) -> String.compare x y) r.outputs
  in
  let xa = sorted a and xb = sorted b in
  List.length xa = List.length xb
  && List.for_all2
       (fun (na, da) (nb, db) ->
         String.equal na nb
         && Array.length da = Array.length db
         && Array.for_all2 equal_value da db)
       xa xb

(** Describe the first difference between two results, for test
    diagnostics. *)
let diff_outputs (a : result) (b : result) : string option =
  let find name r = List.assoc_opt name r.outputs in
  let check (name, da) =
    match find name b with
    | None -> Some (Printf.sprintf "output %s missing in second result" name)
    | Some db ->
      if Array.length da <> Array.length db then
        Some
          (Printf.sprintf "output %s: lengths %d vs %d" name (Array.length da)
             (Array.length db))
      else
        let rec go i =
          if i >= Array.length da then None
          else if not (equal_value da.(i) db.(i)) then
            Some
              (Fmt.str "output %s[%d]: %a vs %a" name i pp_value da.(i)
                 pp_value db.(i))
          else go (i + 1)
        in
        go 0
  in
  List.find_map check a.outputs

(** Describe the first difference between two profiles, for test
    diagnostics. *)
let diff_profiles (a : profile) (b : profile) : string option =
  if a.total_cycles <> b.total_cycles then
    Some
      (Printf.sprintf "total_cycles: %d vs %d" a.total_cycles b.total_cycles)
  else if a.stmts_executed <> b.stmts_executed then
    Some
      (Printf.sprintf "stmts_executed: %d vs %d" a.stmts_executed
         b.stmts_executed)
  else if a.mem_refs <> b.mem_refs then
    Some (Printf.sprintf "mem_refs: %d vs %d" a.mem_refs b.mem_refs)
  else if Hashtbl.length a.loops <> Hashtbl.length b.loops then
    Some
      (Printf.sprintf "loop count: %d vs %d" (Hashtbl.length a.loops)
         (Hashtbl.length b.loops))
  else
    Hashtbl.fold
      (fun path (la : loop_stats) acc ->
        match acc with
        | Some _ -> acc
        | None -> (
          match Hashtbl.find_opt b.loops path with
          | None -> Some (Printf.sprintf "loop %s missing in second profile" path)
          | Some lb ->
            if la.trips <> lb.trips then
              Some
                (Printf.sprintf "loop %s trips: %d vs %d" path la.trips
                   lb.trips)
            else if la.cycles <> lb.cycles then
              Some
                (Printf.sprintf "loop %s cycles: %d vs %d" path la.cycles
                   lb.cycles)
            else None))
      a.loops None

(** First difference between two complete results — outputs, final
    scalars, then profile.  [None] means bit-for-bit identical. *)
let diff_results (a : result) (b : result) : string option =
  match diff_outputs a b with
  | Some _ as d -> d
  | None -> (
    let sorted r =
      List.sort (fun (x, _) (y, _) -> String.compare x y) r.final_scalars
    in
    let sa = sorted a and sb = sorted b in
    let scalar_diff =
      if List.length sa <> List.length sb then
        Some
          (Printf.sprintf "final scalar count: %d vs %d" (List.length sa)
             (List.length sb))
      else
        List.find_map
          (fun ((na, va), (nb, vb)) ->
            if not (String.equal na nb) then
              Some (Printf.sprintf "final scalars: %s vs %s" na nb)
            else if not (equal_value va vb) then
              Some (Fmt.str "final scalar %s: %a vs %a" na pp_value va
                      pp_value vb)
            else None)
          (List.combine sa sb)
    in
    match scalar_diff with
    | Some _ as d -> d
    | None ->
      Option.map (Printf.sprintf "profile: %s")
        (diff_profiles a.profile b.profile))

(* --- profiling report for the Table 1.1 experiment --- *)

type loop_report = {
  lr_path : string;
  lr_trips : int;
  lr_cycles : int;
  lr_fraction : float;  (** of total program cycles *)
}

(** Per-loop execution-time shares, hottest first. *)
let loop_reports (r : result) : loop_report list =
  let total = max 1 r.profile.total_cycles in
  Hashtbl.fold
    (fun path (ls : loop_stats) acc ->
      { lr_path = path;
        lr_trips = ls.trips;
        lr_cycles = ls.cycles;
        lr_fraction = float_of_int ls.cycles /. float_of_int total }
      :: acc)
    r.profile.loops []
  |> List.sort (fun a b -> compare b.lr_cycles a.lr_cycles)
