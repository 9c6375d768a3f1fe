(* Pipeline-stage assignment for unroll-and-squash (§4.3: "Pipeline the
   resulting DFG ignoring the backedges, producing exactly DS pipeline
   stages.  Empty stages may be added or pipeline registers may be
   removed to adjust the stage count to DS.")

   The software realization keeps the inner-loop body as an ordered list
   of statements and cuts it into DS contiguous slices.  The cut is
   chosen to minimize the maximum slice delay (the post-squash stage
   delay bounds the initiation interval), using the classic linear-
   partition dynamic program.  Backedges are ignored by construction:
   slicing never reorders statements. *)

open Uas_ir

(** Estimated delay of one statement: the critical path of its
    expression tree (operators chain sequentially within a statement). *)
let rec stmt_delay (s : Stmt.t) : int =
  let delay = Opinfo.default_delay in
  let rec expr_delay (e : Expr.t) : int =
    match e with
    | Expr.Int _ | Expr.Float _ | Expr.Var _ -> 0
    | Expr.Load (_, i) -> expr_delay i + delay Opinfo.Op_load
    | Expr.Rom (_, i) -> expr_delay i + delay Opinfo.Op_rom
    | Expr.Unop (o, x) -> expr_delay x + delay (Opinfo.Op_unop o)
    | Expr.Binop (o, l, r) ->
      max (expr_delay l) (expr_delay r) + delay (Opinfo.Op_binop o)
    | Expr.Select (c, t, f) ->
      max (expr_delay c) (max (expr_delay t) (expr_delay f))
      + delay Opinfo.Op_select
  in
  match s with
  | Stmt.Assign (_, e) -> max 1 (expr_delay e)
  | Stmt.Store (_, i, e) ->
    max 1 (max (expr_delay i) (expr_delay e) + delay Opinfo.Op_store)
  | Stmt.If (c, t, f) ->
    max 1 (expr_delay c)
    + List.fold_left (fun a s -> a + stmt_delay s) 0 (t @ f)
  | Stmt.For _ -> Types.ir_error "stage assignment requires straight-line code"

(** Cut [stmts] into exactly [stages] contiguous slices (possibly empty
    at the tail) minimizing the maximum slice cost.  Returns the slices
    in order; their concatenation is [stmts]. *)
let partition ~stages (stmts : Stmt.t list) : Stmt.t list list =
  if stages <= 0 then Types.ir_error "stage count must be positive";
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let cost = Array.map stmt_delay arr in
  (* prefix.(i) = cost of the first i statements *)
  let prefix = Array.make (n + 1) 0 in
  for i = 1 to n do
    prefix.(i) <- prefix.(i - 1) + cost.(i - 1)
  done;
  let range_cost i j = prefix.(j) - prefix.(i) in
  (* dp.(k).(i): minimal max-slice-cost splitting the first i statements
     into k slices; cut.(k).(i): position of the last cut *)
  let k_max = stages in
  let dp = Array.make_matrix (k_max + 1) (n + 1) max_int in
  let cut = Array.make_matrix (k_max + 1) (n + 1) 0 in
  dp.(0).(0) <- 0;
  for k = 1 to k_max do
    for i = 0 to n do
      for j = 0 to i do
        if dp.(k - 1).(j) < max_int then begin
          let candidate = max dp.(k - 1).(j) (range_cost j i) in
          if candidate < dp.(k).(i) then begin
            dp.(k).(i) <- candidate;
            cut.(k).(i) <- j
          end
        end
      done
    done
  done;
  (* reconstruct the slice boundaries *)
  let bounds = Array.make (k_max + 1) n in
  let rec back k i =
    bounds.(k) <- i;
    if k > 0 then back (k - 1) cut.(k).(i)
  in
  back k_max n;
  List.init k_max (fun k ->
      let lo = bounds.(k) and hi = bounds.(k + 1) in
      Array.to_list (Array.sub arr lo (hi - lo)))

(** Sum-of-delays per slice, for reporting. *)
let stage_costs (slices : Stmt.t list list) : int list =
  List.map (fun slice -> List.fold_left (fun a s -> a + stmt_delay s) 0 slice)
    slices
