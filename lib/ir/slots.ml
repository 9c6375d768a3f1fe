(* Dense integer slot resolution for the compiled interpreter.

   The reference interpreter resolves every scalar and array access
   through string-keyed hashtables on the hot path.  This module
   assigns each name a dense integer slot once per program, so
   the compiled interpreter (Fast_interp) can hold the runtime environment in
   plain arrays indexed by slot.

   Scalar slots cover the declared scalars (params then locals, in
   declaration order — the first [declared] slots) plus every
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
  array_index : (array_id, int) Hashtbl.t;  (* declaration order *)
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
  List.iteri
    (fun i (d : Stmt.array_decl) -> Hashtbl.replace array_index d.a_name i)
    p.arrays;
  { scalar_names; declared; scalar_index; array_index }

let scalar_count t = Array.length t.scalar_names
let scalar_slot t v = Hashtbl.find_opt t.scalar_index v

(** Is the slot a declared scalar (always present in the environment),
    as opposed to an undeclared loop index (present only after its loop
    first executed)? *)
let scalar_is_declared t slot = slot < t.declared

let array_slot t a = Hashtbl.find_opt t.array_index a
