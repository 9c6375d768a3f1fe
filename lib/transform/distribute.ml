(* Loop distribution (fission, §5.2 mentions it among the Nimble
   front-end transformations): split one loop into a sequence of loops,
   one per group of statements, enabling other transformations on the
   pieces.

   Splitting [for j { S1; S2 }] into [for j { S1 }; for j { S2 }] is
   legal when no value flows from S2's iterations back into S1's later
   iterations — i.e. the statement groups can be topologically ordered
   by their inter-group dependences with the cut respecting that order.
   We check the simple sufficient condition: no scalar or array written
   by the second group is read or written by the first, and no scalar
   defined in the first group and consumed in the second is loop-
   carried (each iteration of the second group must only need the same
   iteration's value, which distribution preserves... it does NOT:
   distribution gives the second loop the *last* iteration's scalars).

   Hence scalars flowing between the groups are only allowed when the
   flow goes through arrays indexed by the loop variable. *)

open Uas_ir
module Sset = Stmt.Sset

type failure =
  | Scalar_flow of string
  | Array_flow of string
  | Bad_cut

let pp_failure ppf = function
  | Scalar_flow v -> Fmt.pf ppf "scalar %s flows between the groups" v
  | Array_flow a -> Fmt.pf ppf "array %s flows backwards between the groups" a
  | Bad_cut -> Fmt.string ppf "cut position out of range"

exception Distribute_error of failure

let () =
  Printexc.register_printer (function
    | Distribute_error f -> Some (Fmt.str "Distribute_error: %a" pp_failure f)
    | _ -> None)

(** Why cutting [l.body] after its first [cut] statements would be
    illegal; empty when safe. *)
let failures (l : Stmt.loop) ~cut : failure list =
  if cut <= 0 || cut >= List.length l.body then [ Bad_cut ]
  else begin
    let g1 = List.filteri (fun k _ -> k < cut) l.body in
    let g2 = List.filteri (fun k _ -> k >= cut) l.body in
    let fs = ref [] in
    (* scalars may not cross the cut at all (the second loop would see
       only the last iteration's values) *)
    let crossing =
      Sset.union
        (Sset.inter (Stmt.defs g1) (Stmt.uses g2))
        (Sset.inter (Stmt.defs g2) (Sset.union (Stmt.uses g1) (Stmt.defs g1)))
    in
    Sset.iter
      (fun v -> if not (String.equal v l.index) then fs := Scalar_flow v :: !fs)
      crossing;
    (* arrays: g2's writes must not feed g1 at any later iteration, and
       g1's writes may feed g2 only at the same iteration *)
    let body_defs = Sset.union (Stmt.defs g1) (Stmt.defs g2) in
    let a1 = Fusion.accesses_of g1 and a2 = Fusion.accesses_of g2 in
    List.iter
      (fun (arr1, i1, w1) ->
        List.iter
          (fun (arr2, i2, w2) ->
            if String.equal arr1 arr2 && (w1 || w2) then begin
              (* conflict between g2 at iteration j and g1 at j+d, d>=1:
                 distribution runs ALL of g1 first, so this reorders *)
              match
                Uas_dfg.Build.cross_distance ~inner_index:(Some l.index)
                  ~inner_step:l.step ~body_defs i2 i1
              with
              | Some _ -> fs := Array_flow arr1 :: !fs
              | None -> ()
            end)
          a2)
      a1;
    List.rev !fs
  end

(** Distribute the loop with index [index] in [p] at statement position
    [cut]. *)
let apply (p : Stmt.program) ~index ~cut : Stmt.program =
  let replaced = ref false in
  let rec go stmts =
    List.concat_map
      (fun s ->
        match s with
        | Stmt.For l when String.equal l.index index && not !replaced -> (
          match failures l ~cut with
          | f :: _ -> raise (Distribute_error f)
          | [] ->
            replaced := true;
            let g1 = List.filteri (fun k _ -> k < cut) l.body in
            let g2 = List.filteri (fun k _ -> k >= cut) l.body in
            [ Stmt.For { l with body = g1 }; Stmt.For { l with body = g2 } ])
        | Stmt.For l -> [ Stmt.For { l with body = go l.body } ]
        | Stmt.If (c, t, e) -> [ Stmt.If (c, go t, go e) ]
        | Stmt.Assign _ | Stmt.Store _ -> [ s ])
      stmts
  in
  let body = go p.body in
  if not !replaced then Types.ir_error "no loop with index %s" index;
  { p with body }

(* The non-raising entry point the rewrite registry builds on. *)
let apply_res (p : Stmt.program) ~index ~cut : (Stmt.program, failure) result =
  match apply p ~index ~cut with
  | q -> Ok q
  | exception Distribute_error f -> Error f
