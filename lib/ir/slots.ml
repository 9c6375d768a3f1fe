(* Dense integer slot resolution for the compiled interpreter.

   The reference interpreter resolves every scalar, array and ROM
   access through string-keyed hashtables on the hot path.  This
   module assigns each name a dense integer slot once per program, so
   the compiled interpreter (Fast_interp) can hold the runtime environment in
   plain arrays indexed by slot.

   Scalar slots cover the declared scalars (params then locals, in
   declaration order — the first [declared_count] slots) plus every
   loop index that appears in the body without a declaration.  The
   reference interpreter admits such indices into its environment the
   first time their loop executes; keeping a slot (and a definedness
   flag, maintained by Fast_interp) for them preserves that dynamic
   behavior bit-for-bit. *)

open Types

type t = {
  scalar_names : var array;  (* slot -> name; declared scalars first *)
  declared : int;  (* slots [0, declared) are declared scalars *)
  scalar_index : (var, int) Hashtbl.t;
  array_names : array_id array;  (* slot -> name, declaration order *)
  array_index : (array_id, int) Hashtbl.t;
  rom_names : rom_id array;
  rom_index : (rom_id, int) Hashtbl.t;
}

let of_program (p : Stmt.program) : t =
  let scalar_index = Hashtbl.create 32 in
  let rev_names = ref [] in
  let add v =
    if not (Hashtbl.mem scalar_index v) then begin
      Hashtbl.add scalar_index v (Hashtbl.length scalar_index);
      rev_names := v :: !rev_names
    end
  in
  List.iter (fun (v, _) -> add v) (Stmt.scalar_decls p);
  let declared = Hashtbl.length scalar_index in
  (* undeclared loop indices: the reference interpreter lets a For loop
     introduce its index into the environment on first execution *)
  Stmt.fold_list
    (fun () s -> match s with Stmt.For l -> add l.index | _ -> ())
    () p.body;
  let scalar_names = Array.of_list (List.rev !rev_names) in
  (* on a (degenerate) duplicated name the later declaration wins,
     matching the reference interpreter's [Hashtbl.replace] *)
  let array_index = Hashtbl.create 8 in
  let array_names =
    Array.of_list (List.map (fun (d : Stmt.array_decl) -> d.a_name) p.arrays)
  in
  Array.iteri (fun i a -> Hashtbl.replace array_index a i) array_names;
  let rom_index = Hashtbl.create 8 in
  let rom_names =
    Array.of_list (List.map (fun (r : Stmt.rom_decl) -> r.r_name) p.roms)
  in
  Array.iteri (fun i r -> Hashtbl.replace rom_index r i) rom_names;
  { scalar_names; declared; scalar_index; array_names; array_index;
    rom_names; rom_index }

let scalar_count t = Array.length t.scalar_names
let declared_count t = t.declared
let scalar_slot t v = Hashtbl.find_opt t.scalar_index v
let scalar_name t slot = t.scalar_names.(slot)

(** Is the slot a declared scalar (always present in the environment),
    as opposed to an undeclared loop index (present only after its loop
    first executed)? *)
let scalar_is_declared t slot = slot < t.declared

let array_count t = Array.length t.array_names
let array_slot t a = Hashtbl.find_opt t.array_index a
let array_name t slot = t.array_names.(slot)

let rom_count t = Array.length t.rom_names
let rom_slot t r = Hashtbl.find_opt t.rom_index r
let rom_name t slot = t.rom_names.(slot)
