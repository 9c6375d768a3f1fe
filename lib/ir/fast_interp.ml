(* The slot-compiled interpreter: the one every production path runs.

   [compile] translates a program once into a tree of OCaml closures
   over a slot-indexed runtime environment (Slots): scalars live in a
   [value array], arrays in a [value array array], ROM contents are
   baked into the lookup closures as pre-boxed values.  Name
   resolution, operator dispatch and loop-path construction all happen
   at compile time, so the hot path does no string hashing and no AST
   matching.  The compiled program is immutable and reusable: each
   [run] builds a fresh mutable state, so one compilation serves every
   workload of a sweep (and may be shared across domains).

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
  mutable loop_stack : Interp.loop_stats list;
}

let stuck fmt = Fmt.kstr (fun s -> raise (Interp.Stuck s)) fmt

let charge rt cycles =
  rt.prof.Interp.total_cycles <- rt.prof.Interp.total_cycles + cycles;
  List.iter
    (fun (ls : Interp.loop_stats) -> ls.cycles <- ls.cycles + cycles)
    rt.loop_stack

let burn rt =
  if rt.fuel <= 0 then raise Interp.Out_of_fuel;
  rt.fuel <- rt.fuel - 1;
  rt.prof.Interp.stmts_executed <- rt.prof.Interp.stmts_executed + 1

let op_cost (k : Opinfo.op_kind) = max 1 (Opinfo.default_delay k)

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

   The compile-time context: the slot resolver plus the program (for
   ROM contents, which are baked into the lookup closures). *)

type ctx = { sl : Slots.t; prog : Stmt.program }

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
    let cost = op_cost Opinfo.Op_load in
    match Slots.array_slot sl a with
    | None ->
      fun rt ->
        let _ = ci rt in
        rt.prof.Interp.mem_refs <- rt.prof.Interp.mem_refs + 1;
        charge rt cost;
        stuck "load from undeclared array %s" a
    | Some s ->
      fun rt ->
        let idx = ci rt in
        rt.prof.Interp.mem_refs <- rt.prof.Interp.mem_refs + 1;
        charge rt cost;
        let data = Array.unsafe_get rt.arrs s in
        if idx < 0 || idx >= Array.length data then
          stuck "load %s[%d] out of bounds (size %d)" a idx (Array.length data)
        else Array.unsafe_get data idx)
  | Rom (r, i) -> (
    let ci = compile_int ctx i in
    let cost = op_cost Opinfo.Op_rom in
    (* the last declaration of a name wins, as in the reference
       interpreter's rom table *)
    let decl =
      List.fold_left
        (fun acc (d : Stmt.rom_decl) ->
          if String.equal d.r_name r then Some d else acc)
        None ctx.prog.Stmt.roms
    in
    match decl with
    | None ->
      fun rt ->
        let _ = ci rt in
        charge rt cost;
        stuck "lookup in undeclared rom %s" r
    | Some d ->
      (* ROM contents are program constants: pre-box every element at
         compile time so a hit allocates nothing *)
      let values = Array.map (fun n -> VInt n) d.Stmt.r_data in
      let size = Array.length values in
      fun rt ->
        let idx = ci rt in
        charge rt cost;
        if idx < 0 || idx >= size then
          stuck "rom lookup %s(%d) out of bounds (size %d)" r idx size
        else Array.unsafe_get values idx)
  | Unop (o, x) ->
    let cx = compile_expr ctx x in
    let cost = op_cost (Opinfo.Op_unop o) in
    let f = unop_fn o in
    fun rt ->
      let vx = cx rt in
      charge rt cost;
      f vx
  | Binop (o, l, r) ->
    let cl = compile_expr ctx l in
    let cr = compile_expr ctx r in
    let cost = op_cost (Opinfo.Op_binop o) in
    let f = binop_fn o in
    fun rt ->
      let vl = cl rt in
      let vr = cr rt in
      charge rt cost;
      f vl vr
  | Select (c, t, f) ->
    let cc = compile_int ctx c in
    let ct = compile_expr ctx t in
    let cf = compile_expr ctx f in
    let cost = op_cost Opinfo.Op_select in
    fun rt ->
      (* both arms evaluate, as in the reference (hardware mux) *)
      let vc = cc rt in
      let vt = ct rt in
      let vf = cf rt in
      charge rt cost;
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

let move_cost = op_cost Opinfo.Op_move
let store_cost = op_cost Opinfo.Op_store

let rec compile_stmt ({ sl; _ } as ctx : ctx) path (s : Stmt.t) : rt -> unit =
  match s with
  | Assign (x, e) -> (
    let ce = compile_expr ctx e in
    match Slots.scalar_slot sl x with
    | None ->
      fun rt ->
        burn rt;
        let _ = ce rt in
        stuck "assignment to undeclared scalar %s" x
    | Some slot ->
      if Slots.scalar_is_declared sl slot then
        fun rt ->
          burn rt;
          let v = ce rt in
          charge rt move_cost;
          Array.unsafe_set rt.scal slot v
      else
        (* assignable only once its loop introduced it, as in the
           reference interpreter's dynamic environment *)
        fun rt ->
          burn rt;
          let v = ce rt in
          if not rt.defined.(slot) then
            stuck "assignment to undeclared scalar %s" x;
          charge rt move_cost;
          rt.scal.(slot) <- v)
  | Store (a, i, e) -> (
    let ci = compile_int ctx i in
    let ce = compile_expr ctx e in
    match Slots.array_slot sl a with
    | None ->
      fun rt ->
        burn rt;
        let _ = ci rt in
        let _ = ce rt in
        rt.prof.Interp.mem_refs <- rt.prof.Interp.mem_refs + 1;
        charge rt store_cost;
        stuck "store to undeclared array %s" a
    | Some slot ->
      fun rt ->
        burn rt;
        let idx = ci rt in
        let v = ce rt in
        rt.prof.Interp.mem_refs <- rt.prof.Interp.mem_refs + 1;
        charge rt store_cost;
        let data = Array.unsafe_get rt.arrs slot in
        if idx < 0 || idx >= Array.length data then
          stuck "store %s[%d] out of bounds (size %d)" a idx (Array.length data)
        else Array.unsafe_set data idx v)
  | If (c, t, e) ->
    let cc = compile_int ctx c in
    let ct = compile_block ctx path t in
    let ce = compile_block ctx path e in
    fun rt ->
      burn rt;
      let vc = cc rt in
      charge rt 1;
      if vc <> 0 then ct rt else ce rt
  | For l ->
    let clo = compile_int ctx l.lo in
    let chi = compile_int ctx l.hi in
    let lpath = path ^ "/" ^ l.index in
    let body = compile_block ctx lpath l.body in
    let step = l.step in
    let slot =
      match Slots.scalar_slot sl l.index with
      | Some s -> s
      | None -> assert false (* slots cover every loop index *)
    in
    let declared = Slots.scalar_is_declared sl slot in
    fun rt ->
      burn rt;
      let lo = clo rt in
      let hi = chi rt in
      let ls = loop_stats_for rt lpath in
      rt.loop_stack <- ls :: rt.loop_stack;
      if not declared then rt.defined.(slot) <- true;
      let rec iterate i =
        if i < hi then begin
          rt.scal.(slot) <- VInt i;
          ls.trips <- ls.trips + 1;
          body rt;
          iterate (i + step)
        end
      in
      let finish () =
        rt.loop_stack <-
          (match rt.loop_stack with [] -> [] | _ :: rest -> rest)
      in
      (try iterate lo with e -> finish (); raise e);
      finish ();
      (* the index keeps its exit value, like a C loop variable *)
      let exit_value =
        if hi <= lo then lo else lo + ((hi - lo + step - 1) / step) * step
      in
      rt.scal.(slot) <- VInt exit_value

and compile_block ctx path (stmts : Stmt.t list) : rt -> unit =
  match List.map (compile_stmt ctx path) stmts with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f; g ] -> fun rt -> f rt; g rt
  | fs ->
    let fs = Array.of_list fs in
    fun rt -> Array.iter (fun f -> f rt) fs

(* --- whole-program compilation --- *)

type compiled = {
  c_program : Stmt.program;
  c_slots : Slots.t;
  c_body : rt -> unit;
}

let compile (p : Stmt.program) : compiled =
  let sl = Slots.of_program p in
  { c_program = p;
    c_slots = sl;
    c_body = compile_block { sl; prog = p } "" p.body }

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
    fuel;
    loop_stack = [] }

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
