(* Loop-invariant code motion (§4.2: "loop invariant code motion" among
   the standard optimizations run before unroll-and-squash).

   An assignment [v = e] inside a loop body hoists to just before the
   loop when
   - [e] reads nothing written in the body (including [v] itself) nor
     the loop index, and contains no memory loads from arrays the body
     stores to;
   - [v] has no other definition in the body, and no earlier
     statement of the body reads it;
   - hoisting preserves the "executed at least once" semantics: the
     loop must have a statically positive trip count, because the
     hoisted assignment will now execute even for zero-trip loops. *)

open Uas_ir
module Sset = Stmt.Sset

let positive_trip (l : Stmt.loop) =
  match (Expr.simplify l.lo, Expr.simplify l.hi) with
  | Expr.Int lo, Expr.Int hi -> hi > lo
  | _ -> false

let hoistable (l : Stmt.loop) : (Stmt.t list * Stmt.t list) option =
  if not (Stmt.is_straight_line l.body) || not (positive_trip l) then None
  else begin
    let defs = Stmt.defs l.body in
    let stored = Stmt.arrays_written l.body in
    let def_counts = Hashtbl.create 8 in
    List.iter
      (fun s ->
        match s with
        | Stmt.Assign (x, _) ->
          Hashtbl.replace def_counts x
            (1 + Option.value ~default:0 (Hashtbl.find_opt def_counts x))
        | _ -> ())
      l.body;
    let invariant_expr e =
      Sset.is_empty (Sset.inter (Expr.var_set e) (Sset.add l.index defs))
      && List.for_all
           (fun a -> not (Sset.mem a stored))
           (Expr.arrays_loaded e)
    in
    (* scan front-to-back; a statement is hoistable if its inputs are
       invariant AND no earlier non-hoisted statement could change them
       — achieved by only hoisting a prefix-closed set: once a
       statement stays, later statements reading its target stay too,
       which the [defs]-based check already guarantees.  A target read
       earlier in the body stays as well: on the first iteration that
       read must see the value from before the loop. *)
    let _, hoisted, kept =
      List.fold_left
        (fun (read, hoisted, kept) s ->
          let hoist =
            match s with
            | Stmt.Assign (x, e) ->
              Hashtbl.find_opt def_counts x = Some 1
              && invariant_expr e
              && not (Sset.mem x read)
            | Stmt.Store _ | Stmt.If _ | Stmt.For _ -> false
          in
          let read = Sset.union read (Stmt.uses [ s ]) in
          if hoist then (read, s :: hoisted, kept)
          else (read, hoisted, s :: kept))
        (Sset.empty, [], []) l.body
    in
    let hoisted = List.rev hoisted and kept = List.rev kept in
    if hoisted = [] then None else Some (hoisted, kept)
  end

(** Hoist invariant assignments out of every eligible loop, bottom-up,
    to fixpoint (hoisting from an inner loop can expose invariance in
    the outer one). *)
let apply (p : Stmt.program) : Stmt.program =
  let changed = ref true in
  let body = ref p.Stmt.body in
  while !changed do
    changed := false;
    let rec go stmts =
      List.concat_map
        (fun s ->
          match s with
          | Stmt.For l -> (
            let l = { l with Stmt.body = go l.body } in
            match hoistable l with
            | Some (hoisted, kept) ->
              changed := true;
              hoisted @ [ Stmt.For { l with body = kept } ]
            | None -> [ Stmt.For l ])
          | Stmt.If (c, t, e) -> [ Stmt.If (c, go t, go e) ]
          | Stmt.Assign _ | Stmt.Store _ -> [ s ])
        stmts
    in
    body := go !body
  done;
  { p with body = !body }
