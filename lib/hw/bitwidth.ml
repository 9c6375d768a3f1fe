(* Bit-width inference over kernel DFGs.

   The Nimble back end sizes each datapath operator to the bits its
   operands actually need (§5.4 discusses how the front end's whole-
   operator view loses such opportunities).  This module recovers them:
   a value-range analysis over the DFG semantics gives every node a
   conservative [lo, hi], from which the estimator can scale operator
   area by the required width.

   Loop-carried registers and memory loads are full width (their entry
   values are unknown), so the narrowing comes from what the body
   itself establishes — explicit masks, byte extracts, ROM contents,
   comparisons.  That is exactly where the crypto kernels win: the
   Skipjack round computes on bytes and 16-bit words behind `& 255`
   masks, so its adders and xors shrink to a quarter of the default
   32-bit rows, while DES stays near 32 bits.  The `ablation-width`
   bench target shows the difference. *)

open Uas_ir
module Build = Uas_dfg.Build
module Graph = Uas_dfg.Graph

(* Intervals are clamped to +-2^40 so interval arithmetic cannot
   overflow a native int; anything wider counts as full width anyway. *)
let bound = 1 lsl 40

type range = { lo : int; hi : int }

let full = { lo = -bound; hi = bound }
let const n = { lo = n; hi = n }
let clamp v = if v > bound then bound else if v < -bound then -bound else v
let make lo hi = { lo = clamp lo; hi = clamp hi }
let join a b = make (min a.lo b.lo) (max a.hi b.hi)
let is_nonneg r = r.lo >= 0

(* smallest all-ones mask covering [0, hi] *)
let rec next_mask m hi = if m >= hi then m else next_mask ((m * 2) + 1) hi

let binop_range (o : Types.binop) a b =
  match o with
  | Types.Add -> make (a.lo + b.lo) (a.hi + b.hi)
  | Types.Sub -> make (a.lo - b.hi) (a.hi - b.lo)
  | Types.Mul ->
    let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    make
      (List.fold_left min max_int products)
      (List.fold_left max min_int products)
  | Types.Div ->
    (* magnitude cannot grow (divisors of magnitude 0 fault anyway) *)
    make (min a.lo (-a.hi)) (max a.hi (-a.lo))
  | Types.Mod ->
    if is_nonneg a && is_nonneg b then make 0 (max 0 (b.hi - 1)) else full
  | Types.BAnd ->
    if is_nonneg a && is_nonneg b then make 0 (min a.hi b.hi)
    else if is_nonneg a then make 0 a.hi
    else if is_nonneg b then make 0 b.hi
    else full
  | Types.BOr | Types.BXor ->
    if is_nonneg a && is_nonneg b then make 0 (next_mask 0 (max a.hi b.hi))
    else full
  | Types.Shl ->
    if b.lo = b.hi && b.lo >= 0 && b.lo < 40 then
      make (a.lo lsl b.lo) (a.hi lsl b.lo)
    else full
  | Types.Shr ->
    if is_nonneg a && is_nonneg b then make 0 (a.hi asr b.lo) else full
  | Types.Lt | Types.Le | Types.Gt | Types.Ge | Types.Eq | Types.Ne
  | Types.Fcmp_lt | Types.Fcmp_le -> make 0 1
  | Types.Fadd | Types.Fsub | Types.Fmul | Types.Fdiv -> full

let unop_range (o : Types.unop) a =
  match o with
  | Types.Neg -> make (-a.hi) (-a.lo)
  | Types.BNot -> make (-a.hi - 1) (-a.lo - 1)
  | Types.Fneg | Types.I2f -> full
  | Types.F2i -> full

(** Conservative value ranges for every node of the kernel DFG, given
    the ROM contents (whose element ranges are statically known) and,
    optionally, entry ranges for the live-in registers ([entry] — e.g.
    the loop-index bounds, or known bus widths of the feeding values).
    A loop-carried register is the join of its entry range and its
    feeding definition, resolved by a short descending fixpoint from
    top (every iterate over-approximates the least fixpoint, so
    stopping early stays sound). *)
let node_ranges ?(rounds = 4) ?(entry = fun _ -> None)
    (detail : Build.detailed) (roms : (string * int array) list) :
    range array =
  let g = detail.Build.d_graph in
  let sem = detail.Build.d_sem in
  let n = Graph.node_count g in
  let ranges = Array.make n full in
  let order = Graph.topo_order g in
  (* carried-register feeding definitions *)
  let carry_source = Array.make n None in
  List.iter
    (fun (e : Graph.edge) ->
      if e.Graph.e_distance > 0 then
        match sem.(e.Graph.e_dst) with
        | Build.Sreg _ -> carry_source.(e.Graph.e_dst) <- Some e.Graph.e_src
        | _ -> ())
    g.Graph.edges;
  let entry_range base =
    match entry base with Some r -> r | None -> full
  in
  for _ = 1 to rounds do
    List.iter
      (fun i ->
        ranges.(i) <-
          (match sem.(i) with
          | Build.Sconst (Types.VInt v) -> const v
          | Build.Sconst (Types.VFloat _) -> full
          | Build.Sreg base -> (
            match carry_source.(i) with
            | Some src -> join (entry_range base) ranges.(src)
            | None -> entry_range base)
          | Build.Smove src -> ranges.(src)
          | Build.Sbinop (o, a, b) -> binop_range o ranges.(a) ranges.(b)
          | Build.Sunop (o, a) -> unop_range o ranges.(a)
          | Build.Sselect (_, a, b) -> join ranges.(a) ranges.(b)
          | Build.Srom (r, _) -> (
            match List.assoc_opt r roms with
            | Some data when Array.length data > 0 ->
              Array.fold_left
                (fun acc x -> join acc (const x))
                (const data.(0))
                data
            | _ -> make 0 bound)
          | Build.Sload _ -> full
          | Build.Sstore (_, _, v) -> ranges.(v)))
      order
  done;
  ranges

(** Bits needed for a (signed when necessary) value in the range. *)
let width_bits (r : range) : int =
  let bits_for v =
    let rec go b = if v < 1 lsl b || b >= 63 then b else go (b + 1) in
    go 1
  in
  let w =
    if r.lo >= 0 then bits_for (max 1 r.hi)
    else 1 + bits_for (max (max 1 r.hi) (-r.lo - 1))
  in
  min 32 w  (* the row model is 32-bit; wider values use full rows *)

(** Scale a 32-bit-row operator area to the inferred width (at least
    one row). *)
let scale_area ~area ~width : int =
  max 1 (((area * max 1 width) + 31) / 32)

(** Width-aware operator area of a kernel DFG: every operator's default
    area scaled by its result width. *)
let operator_area ?entry (detail : Build.detailed)
    ~(roms : (string * int array) list) : int =
  let g = detail.Build.d_graph in
  let ranges = node_ranges ?entry detail roms in
  let total = ref 0 in
  Array.iter
    (fun (nd : Graph.node) ->
      let a = Opinfo.default_area nd.Graph.kind in
      if a > 0 then
        total :=
          !total + scale_area ~area:a ~width:(width_bits ranges.(nd.Graph.id)))
    g.Graph.nodes;
  !total
