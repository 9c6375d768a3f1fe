(* The slot-compiled interpreter: the one every production path runs.

   [compile] translates a program once into a tree of OCaml closures
   over a slot-indexed runtime environment (Slots): scalars live in a
   [value array], arrays in a [value array array], ROM contents are
   boxed once per compilation and shared by every lookup closure of
   that ROM.  Name resolution, operator dispatch and loop-path
   construction all happen at compile time, so the hot path does no
   string hashing and no AST matching.  The compiled program is
   immutable and reusable: each [run] builds a fresh mutable state, so
   one compilation serves every workload of a sweep (and may be shared
   across domains).

   Profiling is accounted, not traced.  Expression closures only
   compute values: every assignment and store knows its cycles and
   memory references at compile time, and each maximal straight-line
   run of them takes its fuel and adds its profile once.  A loop's
   inclusive cycles are the difference of [total_cycles] across its
   iterations, so charging a cost is one add, whatever the nesting
   depth.  A run that raises returns no profile, so nothing is undone
   on the exception path.

   It is observationally identical to the reference interpreter
   (Interp, which stays the oracle) — outputs, final scalars, the full
   cycle/trip/mem-ref profile, and the same [Interp.Stuck] messages
   and [Interp.Out_of_fuel] cutoffs, in the same evaluation order.
   The differential test suite and [Interp.diff_results] hold it to
   that contract bit-for-bit. *)

open Types

(* --- runtime state (one per run) --- *)

type rt = {
  scal : value array;  (* scalar slots *)
  defined : bool array;  (* only consulted for undeclared-index slots *)
  arrs : value array array;  (* array slots *)
  prof : Interp.profile;
  mutable fuel : int;
}

let stuck fmt = Fmt.kstr (fun s -> raise (Interp.Stuck s)) fmt

let account rt ~cycles ~mem_refs =
  let prof = rt.prof in
  prof.Interp.total_cycles <- prof.Interp.total_cycles + cycles;
  prof.Interp.mem_refs <- prof.Interp.mem_refs + mem_refs

let burn rt =
  if rt.fuel <= 0 then raise Interp.Out_of_fuel;
  rt.fuel <- rt.fuel - 1;
  rt.prof.Interp.stmts_executed <- rt.prof.Interp.stmts_executed + 1

(* the cycles the reference charges for evaluating [e]: each operator's
   cost once (both arms of a select evaluate); variables and literals
   are free *)
let expr_cycles (e : Expr.t) =
  Expr.fold
    (fun n (e : Expr.t) ->
      match e with
      | Int _ | Float _ | Var _ -> n
      | Load _ -> n + Opinfo.cycle_cost Opinfo.Op_load
      | Rom _ -> n + Opinfo.cycle_cost Opinfo.Op_rom
      | Unop (o, _) -> n + Opinfo.cycle_cost (Opinfo.Op_unop o)
      | Binop (o, _, _) -> n + Opinfo.cycle_cost (Opinfo.Op_binop o)
      | Select _ -> n + Opinfo.cycle_cost Opinfo.Op_select)
    0 e

(* --- compile-time operator specialization ---

   Each operator is resolved to a direct [value -> value] closure
   once.  The well-typed case is inlined; anything else (type
   mismatch, division by zero, shift out of range) falls back to
   [Expr.eval_binop], which raises [Ir_error] with exactly the
   message the reference interpreter converts to [Stuck]. *)

let fallback_binop o a b =
  try Expr.eval_binop o a b with Ir_error m -> raise (Interp.Stuck m)

let fallback_unop o a =
  try Expr.eval_unop o a with Ir_error m -> raise (Interp.Stuck m)

let truth n = if n then 1 else 0

let binop_fn (o : binop) : value -> value -> value =
  let fb = fallback_binop o in
  match o with
  | Add -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (x + y) | _ -> fb a b)
  | Sub -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (x - y) | _ -> fb a b)
  | Mul -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (x * y) | _ -> fb a b)
  | Div -> (fun a b ->
      match (a, b) with
      | VInt x, VInt y when y <> 0 -> VInt (x / y)
      | _ -> fb a b)
  | Mod -> (fun a b ->
      match (a, b) with
      | VInt x, VInt y when y <> 0 -> VInt (x mod y)
      | _ -> fb a b)
  | BAnd -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (x land y) | _ -> fb a b)
  | BOr -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (x lor y) | _ -> fb a b)
  | BXor -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (x lxor y) | _ -> fb a b)
  | Shl -> (fun a b ->
      match (a, b) with
      | VInt x, VInt y when y >= 0 && y <= 62 -> VInt (x lsl y)
      | _ -> fb a b)
  | Shr -> (fun a b ->
      match (a, b) with
      | VInt x, VInt y when y >= 0 && y <= 62 -> VInt (x asr y)
      | _ -> fb a b)
  | Lt -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (truth (x < y)) | _ -> fb a b)
  | Le -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (truth (x <= y)) | _ -> fb a b)
  | Gt -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (truth (x > y)) | _ -> fb a b)
  | Ge -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (truth (x >= y)) | _ -> fb a b)
  | Eq -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (truth (x = y)) | _ -> fb a b)
  | Ne -> (fun a b ->
      match (a, b) with VInt x, VInt y -> VInt (truth (x <> y)) | _ -> fb a b)
  | Fadd -> (fun a b ->
      match (a, b) with VFloat x, VFloat y -> VFloat (x +. y) | _ -> fb a b)
  | Fsub -> (fun a b ->
      match (a, b) with VFloat x, VFloat y -> VFloat (x -. y) | _ -> fb a b)
  | Fmul -> (fun a b ->
      match (a, b) with VFloat x, VFloat y -> VFloat (x *. y) | _ -> fb a b)
  | Fdiv -> (fun a b ->
      match (a, b) with VFloat x, VFloat y -> VFloat (x /. y) | _ -> fb a b)
  | Fcmp_lt -> (fun a b ->
      match (a, b) with
      | VFloat x, VFloat y -> VInt (truth (x < y))
      | _ -> fb a b)
  | Fcmp_le -> (fun a b ->
      match (a, b) with
      | VFloat x, VFloat y -> VInt (truth (x <= y))
      | _ -> fb a b)

let unop_fn (o : unop) : value -> value =
  let fb = fallback_unop o in
  match o with
  | Neg -> (fun a -> match a with VInt x -> VInt (-x) | _ -> fb a)
  | BNot -> (fun a -> match a with VInt x -> VInt (lnot x) | _ -> fb a)
  | Fneg -> (fun a -> match a with VFloat x -> VFloat (-.x) | _ -> fb a)
  | I2f -> (fun a -> match a with VInt x -> VFloat (float_of_int x) | _ -> fb a)
  | F2i -> (fun a -> match a with VFloat x -> VInt (int_of_float x) | _ -> fb a)

(* --- expression compilation ---

   The compile-time context: the slot resolver and the program's ROMs.
   ROM contents are program constants, boxed once per compilation so a
   hit allocates nothing and every lookup site of a ROM shares one
   array; the last declaration of a name wins, as in the reference
   interpreter's rom table.  Expression closures compute values only:
   the statement that evaluates them charges their cycles and memory
   references (see [expr_cycles]). *)

type ctx = { sl : Slots.t; roms : (rom_id, value array) Hashtbl.t }

let context (p : Stmt.program) : ctx =
  let roms = Hashtbl.create 4 in
  List.iter
    (fun (d : Stmt.rom_decl) ->
      Hashtbl.replace roms d.r_name (Array.map (fun n -> VInt n) d.r_data))
    p.roms;
  { sl = Slots.of_program p; roms }

let rec compile_expr ({ sl; _ } as ctx : ctx) (e : Expr.t) : rt -> value =
  match e with
  | Int n ->
    let v = VInt n in
    fun _ -> v
  | Float f ->
    let v = VFloat f in
    fun _ -> v
  | Var x -> (
    match Slots.scalar_slot sl x with
    | None -> fun _ -> stuck "read of undeclared scalar %s" x
    | Some s ->
      if Slots.scalar_is_declared sl s then fun rt -> Array.unsafe_get rt.scal s
      else
        (* an undeclared loop index: readable only once its loop ran *)
        fun rt ->
          if rt.defined.(s) then rt.scal.(s)
          else stuck "read of undeclared scalar %s" x)
  | Load (a, i) -> (
    let ci = compile_int ctx i in
    match Slots.array_slot sl a with
    | None ->
      fun rt ->
        let _ = ci rt in
        stuck "load from undeclared array %s" a
    | Some s ->
      fun rt ->
        let idx = ci rt in
        let data = Array.unsafe_get rt.arrs s in
        if idx < 0 || idx >= Array.length data then
          stuck "load %s[%d] out of bounds (size %d)" a idx (Array.length data)
        else Array.unsafe_get data idx)
  | Rom (r, i) -> (
    let ci = compile_int ctx i in
    match Hashtbl.find_opt ctx.roms r with
    | None ->
      fun rt ->
        let _ = ci rt in
        stuck "lookup in undeclared rom %s" r
    | Some values ->
      let size = Array.length values in
      fun rt ->
        let idx = ci rt in
        if idx < 0 || idx >= size then
          stuck "rom lookup %s(%d) out of bounds (size %d)" r idx size
        else Array.unsafe_get values idx)
  | Unop (o, x) ->
    let cx = compile_expr ctx x in
    let f = unop_fn o in
    fun rt -> f (cx rt)
  | Binop (o, l, r) ->
    let cl = compile_expr ctx l in
    let cr = compile_expr ctx r in
    let f = binop_fn o in
    fun rt ->
      let vl = cl rt in
      let vr = cr rt in
      f vl vr
  | Select (c, t, f) ->
    let cc = compile_int ctx c in
    let ct = compile_expr ctx t in
    let cf = compile_expr ctx f in
    fun rt ->
      (* both arms evaluate, as in the reference (hardware mux) *)
      let vc = cc rt in
      let vt = ct rt in
      let vf = cf rt in
      if vc <> 0 then vt else vf

and compile_int ctx (e : Expr.t) : rt -> int =
  let ce = compile_expr ctx e in
  fun rt ->
    match ce rt with
    | VInt n -> n
    | VFloat _ ->
      (* the pretty-printed expression is only built on the error path,
         exactly as in the reference interpreter *)
      stuck "expected an integer value for %s" (Pp.expr_to_string e)

(* --- statement compilation --- *)

let loop_stats_for rt path : Interp.loop_stats =
  match Hashtbl.find_opt rt.prof.Interp.loops path with
  | Some ls -> ls
  | None ->
    let ls = { Interp.trips = 0; cycles = 0 } in
    Hashtbl.replace rt.prof.Interp.loops path ls;
    ls

let move_cost = Opinfo.cycle_cost Opinfo.Op_move
let store_cost = Opinfo.cycle_cost Opinfo.Op_store

(* An assignment or a store compiles to its body (no fuel, no profile)
   and the cycles and memory references it charges when it completes;
   an [If] or a [For] compiles to a closure that does its own
   accounting. *)
type step =
  | Simple of { body : rt -> unit; cycles : int; mem_refs : int }
  | Control of (rt -> unit)

(* A maximal straight-line run of simple statements.  When the fuel
   covers the run, it is taken and the profile added once for all of
   them.  Otherwise the fuel runs out inside the run: burning before
   each statement raises [Out_of_fuel] at the reference's statement, or
   the [Stuck] of an earlier one first, so this branch never returns. *)
let straight_line bodies ~cycles ~mem_refs : rt -> unit =
  let n = Array.length bodies in
  fun rt ->
    if rt.fuel >= n then begin
      rt.fuel <- rt.fuel - n;
      rt.prof.Interp.stmts_executed <- rt.prof.Interp.stmts_executed + n;
      for k = 0 to n - 1 do
        (Array.unsafe_get bodies k) rt
      done;
      account rt ~cycles ~mem_refs
    end
    else Array.iter (fun f -> burn rt; f rt) bodies

let rec compile_stmt ({ sl; _ } as ctx : ctx) path (s : Stmt.t) : step =
  match s with
  | Assign (x, e) ->
    let ce = compile_expr ctx e in
    let body =
      match Slots.scalar_slot sl x with
      | None ->
        fun rt ->
          let _ = ce rt in
          stuck "assignment to undeclared scalar %s" x
      | Some slot ->
        if Slots.scalar_is_declared sl slot then
          fun rt -> Array.unsafe_set rt.scal slot (ce rt)
        else
          (* assignable only once its loop introduced it, as in the
             reference interpreter's dynamic environment *)
          fun rt ->
            let v = ce rt in
            if not rt.defined.(slot) then
              stuck "assignment to undeclared scalar %s" x;
            rt.scal.(slot) <- v
    in
    Simple
      { body; cycles = expr_cycles e + move_cost; mem_refs = Expr.load_count e }
  | Store (a, i, e) ->
    let ci = compile_int ctx i in
    let ce = compile_expr ctx e in
    let body =
      match Slots.array_slot sl a with
      | None ->
        fun rt ->
          let _ = ci rt in
          let _ = ce rt in
          stuck "store to undeclared array %s" a
      | Some slot ->
        fun rt ->
          let idx = ci rt in
          let v = ce rt in
          let data = Array.unsafe_get rt.arrs slot in
          if idx < 0 || idx >= Array.length data then
            stuck "store %s[%d] out of bounds (size %d)" a idx
              (Array.length data)
          else Array.unsafe_set data idx v
    in
    Simple
      { body;
        cycles = expr_cycles i + expr_cycles e + store_cost;
        mem_refs = Expr.load_count i + Expr.load_count e + 1 }
  | If (c, t, e) ->
    let cc = compile_int ctx c in
    let cycles = expr_cycles c + 1 and mem_refs = Expr.load_count c in
    let ct = compile_block ctx path t in
    let ce = compile_block ctx path e in
    Control
      (fun rt ->
        burn rt;
        let vc = cc rt in
        account rt ~cycles ~mem_refs;
        if vc <> 0 then ct rt else ce rt)
  | For l ->
    let clo = compile_int ctx l.lo in
    let chi = compile_int ctx l.hi in
    let cycles = expr_cycles l.lo + expr_cycles l.hi in
    let mem_refs = Expr.load_count l.lo + Expr.load_count l.hi in
    let lpath = path ^ "/" ^ l.index in
    let body = compile_block ctx lpath l.body in
    let step = l.step in
    let slot =
      match Slots.scalar_slot sl l.index with
      | Some s -> s
      | None -> assert false (* slots cover every loop index *)
    in
    let declared = Slots.scalar_is_declared sl slot in
    Control
      (fun rt ->
        burn rt;
        let lo = clo rt in
        let hi = chi rt in
        account rt ~cycles ~mem_refs;
        let ls = loop_stats_for rt lpath in
        if not declared then rt.defined.(slot) <- true;
        (* the loop's inclusive cycles: everything charged while it runs *)
        let start = rt.prof.Interp.total_cycles in
        let rec iterate i =
          if i < hi then begin
            rt.scal.(slot) <- VInt i;
            ls.trips <- ls.trips + 1;
            body rt;
            iterate (i + step)
          end
        in
        iterate lo;
        ls.cycles <- ls.cycles + (rt.prof.Interp.total_cycles - start);
        (* the index keeps its exit value, like a C loop variable *)
        let exit_value =
          if hi <= lo then lo else lo + ((hi - lo + step - 1) / step) * step
        in
        rt.scal.(slot) <- VInt exit_value)

(* consecutive simple statements become one [straight_line] run *)
and compile_block ctx path (stmts : Stmt.t list) : rt -> unit =
  let close run ~cycles ~mem_refs blocks =
    match run with
    | [] -> blocks
    | _ ->
      straight_line (Array.of_list (List.rev run)) ~cycles ~mem_refs :: blocks
  in
  (* [run] holds the bodies of the open straight-line run, last first *)
  let rec group blocks run cycles mem_refs = function
    | [] -> List.rev (close run ~cycles ~mem_refs blocks)
    | s :: rest -> (
      match compile_stmt ctx path s with
      | Simple s ->
        group blocks (s.body :: run) (cycles + s.cycles)
          (mem_refs + s.mem_refs) rest
      | Control f ->
        group (f :: close run ~cycles ~mem_refs blocks) [] 0 0 rest)
  in
  match group [] [] 0 0 stmts with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f; g ] -> fun rt -> f rt; g rt
  | fs ->
    let fs = Array.of_list fs in
    let n = Array.length fs in
    fun rt ->
      for k = 0 to n - 1 do
        (Array.unsafe_get fs k) rt
      done

(* --- whole-program compilation --- *)

type compiled = {
  c_program : Stmt.program;
  c_slots : Slots.t;
  c_body : rt -> unit;
}

let compile (p : Stmt.program) : compiled =
  let ctx = context p in
  { c_program = p; c_slots = ctx.sl; c_body = compile_block ctx "" p.body }

let program c = c.c_program
let slots c = c.c_slots

(* --- per-run state initialization (mirrors Interp.init_state) --- *)

let zero_of = function Tint -> VInt 0 | Tfloat -> VFloat 0.0

let init (c : compiled) (w : Interp.workload) ~fuel : rt =
  let sl = c.c_slots in
  let scal = Array.make (max 1 (Slots.scalar_count sl)) (VInt 0) in
  let defined = Array.make (max 1 (Slots.scalar_count sl)) false in
  let p = c.c_program in
  List.iter
    (fun (v, t) ->
      match Slots.scalar_slot sl v with
      | Some s ->
        scal.(s) <- zero_of t;
        defined.(s) <- true
      | None -> assert false)
    (Stmt.scalar_decls p);
  List.iter
    (fun (v, value) ->
      match Stmt.lookup_scalar_ty p v with
      | None -> stuck "workload sets undeclared scalar %s" v
      | Some t when not (equal_ty t (ty_of_value value)) ->
        stuck "workload sets %s with wrong-typed value" v
      | Some _ -> (
        match Slots.scalar_slot sl v with
        | Some s -> scal.(s) <- value
        | None -> assert false))
    w.Interp.w_scalars;
  let arrs =
    Array.of_list
      (List.map
         (fun (d : Stmt.array_decl) ->
           match (d.a_kind, List.assoc_opt d.a_name w.Interp.w_arrays) with
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
           | (Stmt.Output | Stmt.Local), _ ->
             Array.make d.a_size (zero_of d.a_ty))
         p.arrays)
  in
  { scal;
    defined;
    arrs;
    prof =
      { Interp.total_cycles = 0;
        stmts_executed = 0;
        mem_refs = 0;
        loops = Hashtbl.create 16 };
    fuel }

(** Run a compiled program on a workload.  The compiled value is not
    mutated: each call builds a fresh state, so one compilation can be
    replayed on any number of workloads (and from any domain).
    @raise Interp.Stuck on runtime errors
    @raise Interp.Out_of_fuel past [fuel] executed statements. *)
let run ?(fuel = Interp.default_fuel) (c : compiled) (w : Interp.workload) :
    Interp.result =
  let rt = init c w ~fuel in
  c.c_body rt;
  let sl = c.c_slots in
  let outputs =
    List.filter_map
      (fun (d : Stmt.array_decl) ->
        match d.a_kind with
        | Stmt.Output -> (
          match Slots.array_slot sl d.a_name with
          | Some s -> Some (d.a_name, rt.arrs.(s))
          | None -> assert false)
        | Stmt.Input | Stmt.Local -> None)
      c.c_program.arrays
  in
  let final_scalars =
    List.map
      (fun (v, _) ->
        match Slots.scalar_slot sl v with
        | Some s -> (v, rt.scal.(s))
        | None -> assert false)
      (Stmt.scalar_decls c.c_program)
  in
  { Interp.outputs; final_scalars; profile = rt.prof }

(** Compile and run in one step (no artifact reuse). *)
let run_program ?fuel (p : Stmt.program) (w : Interp.workload) :
    Interp.result =
  run ?fuel (compile p) w
