(* Array dependence analysis for loop nests (§3.2, §4.2).

   Every consumer abstracts an array subscript the same way, as one
   affine form over the loop indices

       Σ ck * index_k  +  const  +  Σ cs * symbolic invariants

   built by one extractor, {!form_of}.  The caller classifies each name
   it meets: index k, a definition to substitute, an iteration-variant
   scalar (the form is then unknown), or a symbol.  Each access carries
   its form, computed once.

   - The adjacent-pair view (outer index i, inner index j, unique
     pre-header definitions substituted) compares two forms with the
     classic ZIV / strong-SIV / GCD tests to bound the *outer-loop
     dependence distance* — the quantity the unroll-and-squash legality
     cases of §4.2 are stated over.
   - The full depth-d view (one coefficient per level) solves the
     resulting diophantine equation over the per-level iteration ranges
     for the classic *distance vectors*, which interchange's direction
     test consumes at any depth.
   - The DFG builder (Uas_dfg.Build) forms each memory access of a
     straight-line body over the inner index alone. *)

open Uas_ir
module Smap = Map.Make (String)

(* --- symbolic parts: sorted (symbol, coefficient) lists --- *)

let rec sym_add xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | (v, a) :: xs', (w, b) :: ys' ->
    let c = String.compare v w in
    if c < 0 then (v, a) :: sym_add xs' ys
    else if c > 0 then (w, b) :: sym_add xs ys'
    else
      let s = a + b in
      if s = 0 then sym_add xs' ys' else (v, s) :: sym_add xs' ys'

let sym_scale k syms =
  if k = 0 then [] else List.map (fun (v, c) -> (v, k * c)) syms

type form = {
  coeffs : int array;  (** per index, outermost first *)
  const : int;
  syms : (string * int) list;
      (** sorted loop-invariant symbols with their nonzero coefficients *)
}

type name_class =
  | Index of int
  | Subst of Expr.t
  | Variant
  | Sym of string

let ( let* ) = Option.bind

(** Affine form of [e] over [levels] indices, each name classified by
    [classify]; [None] when the expression is not (recognizably)
    affine. *)
let form_of ~levels ~classify (e : Expr.t) : form option =
  let const c = { coeffs = Array.make levels 0; const = c; syms = [] } in
  let add x y =
    { coeffs = Array.map2 ( + ) x.coeffs y.coeffs;
      const = x.const + y.const;
      syms = sym_add x.syms y.syms }
  in
  let scale k x =
    { coeffs = Array.map (fun c -> k * c) x.coeffs;
      const = k * x.const;
      syms = sym_scale k x.syms }
  in
  (* [e] is simplified; the depth cap also stops a definition that
     refers to itself *)
  let rec go depth (e : Expr.t) =
    if depth > 16 then None
    else
      match e with
      | Expr.Int n -> Some (const n)
      | Expr.Var v -> (
        match classify v with
        | Index k ->
          Some
            { (const 0) with
              coeffs = Array.init levels (fun i -> if i = k then 1 else 0) }
        | Subst d -> go (depth + 1) (Expr.simplify d)
        | Variant -> None
        | Sym s -> Some { (const 0) with syms = [ (s, 1) ] })
      | Expr.Binop (Types.Add, a, b) ->
        let* x = go (depth + 1) a in
        let* y = go (depth + 1) b in
        Some (add x y)
      | Expr.Binop (Types.Sub, a, b) ->
        let* x = go (depth + 1) a in
        let* y = go (depth + 1) b in
        Some (add x (scale (-1) y))
      | Expr.Binop (Types.Mul, Expr.Int k, a)
      | Expr.Binop (Types.Mul, a, Expr.Int k) ->
        Option.map (scale k) (go (depth + 1) a)
      | Expr.Binop (Types.Shl, a, Expr.Int k) when k >= 0 && k < 31 ->
        Option.map (scale (1 lsl k)) (go (depth + 1) a)
      | _ -> None
  in
  go 0 (Expr.simplify e)

(** Outer-loop dependence distance between two accesses, in *outer
    iterations*. *)
type outer_distance =
  | No_dependence           (** accesses can never conflict *)
  | Exact of int            (** conflicts only at this outer-iteration distance *)
  | Within of int * int     (** all conflicts at distances in [lo, hi] *)
  | Any                     (** unknown / unbounded *)

let pp_outer_distance ppf = function
  | No_dependence -> Fmt.string ppf "independent"
  | Exact d -> Fmt.pf ppf "distance %d" d
  | Within (a, b) -> Fmt.pf ppf "distance in [%d, %d]" a b
  | Any -> Fmt.string ppf "unknown"

type access = {
  acc_array : Types.array_id;
  acc_index : Expr.t;
  acc_is_write : bool;
  acc_form : form option;
}

(* Every array access of [stmts] in program order, each subscript
   formed by [form]. *)
let accesses_of_stmts form stmts =
  let access is_write a i =
    { acc_array = a; acc_index = i; acc_is_write = is_write;
      acc_form = form i }
  in
  let of_expr e =
    List.rev
      (Expr.fold
         (fun acc e ->
           match e with Expr.Load (a, i) -> access false a i :: acc | _ -> acc)
         [] e)
  in
  let rec go stmts =
    List.concat_map
      (fun s ->
        match s with
        | Stmt.Assign (_, e) -> of_expr e
        | Stmt.Store (a, i, e) -> of_expr i @ of_expr e @ [ access true a i ]
        | Stmt.If (c, t, f) -> of_expr c @ go t @ go f
        | Stmt.For l -> go l.body)
      stmts
  in
  go stmts

(* Every array access of the pair, formed over (outer, inner) with the
   unique straight-line definitions of [pre] substituted: scalars
   assigned exactly once in [pre] and nowhere else in the nest.
   Loop-body definitions are iteration-variant and must not be chased
   across iterations, so they are not substituted. *)
let accesses (nest : Loop_nest.pair) : access list =
  let all = Loop_nest.all_stmts nest in
  let defs =
    List.fold_left
      (fun m s ->
        match s with
        | Stmt.Assign (v, e) when Induction.count_defs v all = 1 ->
          Smap.add v e m
        | _ -> m)
      Smap.empty nest.Loop_nest.pre
  in
  let defined = Stmt.defs all in
  let classify v =
    (* the outer index in terms of its *value*; distances are converted
       to iteration units in [outer_distance] *)
    if String.equal v nest.outer_index then Index 0
    else if String.equal v nest.inner_index then Index 1
    else
      match Smap.find_opt v defs with
      | Some e -> Subst e
      | None -> if Stmt.Sset.mem v defined then Variant else Sym v
  in
  let form = form_of ~levels:2 ~classify in
  accesses_of_stmts form nest.Loop_nest.pre
  @ accesses_of_stmts form nest.inner_body
  @ accesses_of_stmts form nest.post

(** Every potentially dependent pair of [accs] (same array, at least
    one write), including a store's self-pair, in listing order. *)
let dependent_pairs (accs : access list) : (access * access) list =
  let rec pairs = function
    | [] -> []
    | x :: rest ->
      List.filter_map
        (fun y ->
          if
            String.equal x.acc_array y.acc_array
            && (x.acc_is_write || y.acc_is_write)
          then Some (x, y)
          else None)
        (x :: rest)
      @ pairs rest
  in
  pairs accs

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* [ext_gcd a b = (g, x, y)] with [a*x + b*y = g = gcd a b], for
   [a, b >= 0] *)
let rec ext_gcd a b =
  if b = 0 then (a, 1, 0)
  else
    let g, x, y = ext_gcd b (a mod b) in
    (g, y, x - (a / b * y))

let pmod x m = ((x mod m) + m) mod m
(* floor and ceiling of x / y, for y > 0 *)
let fdiv x y = if x >= 0 then x / y else -((-x + y - 1) / y)
let cdiv x y = -fdiv (-x) y

(* The t with [lo <= c*t <= hi] for [c <> 0], as an inclusive interval
   (empty when its lower end exceeds its upper end). *)
let multiples_within c lo hi =
  if c > 0 then (cdiv lo c, fdiv hi c) else (cdiv (-hi) (-c), fdiv (-lo) (-c))

(** Solve [a*di + b*dj = delta] for the range of [di], with [dj] over
    the inner index-value differences [{-(n-1)*s, ..., (n-1)*s}] when
    the inner trip count [n] and step [s] are known, and [di] bounded
    by the outer iteration range when [outer_trips] is known. *)
let solve_distance ~inner_trips ~inner_step ~outer_trips a b delta :
    outer_distance =
  let di_possible di =
    match outer_trips with None -> true | Some m -> abs di <= m - 1
  in
  if a = 0 && b = 0 then if delta = 0 then Exact 0 else No_dependence
  else if b = 0 then
    (* strong SIV on the outer index *)
    if delta mod a = 0 && di_possible (delta / a) then Exact (delta / a)
    else No_dependence
  else if a = 0 then
    (* the index ignores the outer loop: when the inner equation
       b*dj = delta has a solution in range, the same element recurs in
       every outer iteration *)
    if delta mod b <> 0 || delta / b mod inner_step <> 0 then No_dependence
    else (
      match inner_trips with
      | Some n when abs (delta / b / inner_step) > n - 1 -> No_dependence
      | Some _ | None -> Any)
  else if delta mod gcd a b <> 0 then No_dependence
  else
    match inner_trips with
    | None -> Any
    | Some n ->
      (* di = (delta - bs*t)/a for the t in [-(n-1), n-1] with
         bs*t ≡ delta (mod |a|), and |di| <= m-1 when the outer trip
         count m is known.  di is monotone in t, so the extreme
         solutions t bound it. *)
      let bs = b * inner_step and p = abs a in
      let lo, hi =
        match outer_trips with
        | None -> (-(n - 1), n - 1)
        | Some m ->
          let r = (m - 1) * p in
          let lo, hi = multiples_within bs (delta - r) (delta + r) in
          (max lo (-(n - 1)), min hi (n - 1))
      in
      (* the solutions of the congruence are t ≡ t0 (mod q) *)
      let g, u, _ = ext_gcd (pmod bs p) p in
      if pmod delta g <> 0 then No_dependence
      else
        let q = p / g in
        let t0 = pmod (u * (pmod delta p / g)) q in
        let tmin = lo + pmod (t0 - lo) q and tmax = hi - pmod (hi - t0) q in
        if tmin > tmax then No_dependence
        else
          let di t = (delta - (bs * t)) / a in
          let x = di tmin and y = di tmax in
          if x = y then Exact x else Within (min x y, max x y)

(* Outer dependence distance between two accesses of the same array,
   in units of outer *iterations*: the forms are in terms of the outer
   index's value, which advances by [outer_step]. *)
let outer_distance (nest : Loop_nest.pair) (x : access) (y : access) :
    outer_distance =
  match (x.acc_form, y.acc_form) with
  | Some fx, Some fy when fx.coeffs = fy.coeffs && fx.syms = fy.syms ->
    let d =
      solve_distance
        ~inner_trips:(Loop_nest.inner_trip_count nest)
        ~inner_step:nest.inner_step
        ~outer_trips:(Loop_nest.outer_trip_count nest) fx.coeffs.(0)
        fx.coeffs.(1) (fy.const - fx.const)
    in
    (* index-space distance -> iteration distance; conservative: an
       interval is rounded outward *)
    let step = nest.outer_step in
    (match d with
    | No_dependence | Any -> d
    | Exact v -> if v mod step = 0 then Exact (v / step) else No_dependence
    | Within (a, b) -> Within (fdiv a step, cdiv b step))
  | _ -> Any

(** All dependent pairs of the nest (at least one write, same array),
    with their outer distances. *)
let all_pairs (nest : Loop_nest.pair) : (access * access * outer_distance) list
    =
  List.map
    (fun (x, y) -> (x, y, outer_distance nest x y))
    (dependent_pairs (accesses nest))

(* --- depth-general view: one coefficient per nest level --- *)

(** Every array access of a full nest: band accesses at every level
    plus the innermost body, formed over all levels.  Scalars defined
    anywhere inside the nest (other than the indices) are
    iteration-variant at some level and make the form unknown —
    conservative, but exact on perfect nests. *)
let nest_accesses (n : Loop_nest.t) : access list =
  let indices = List.map (fun lv -> lv.Loop_nest.l_index) n.Loop_nest.levels in
  let defined = Stmt.defs [ Loop_nest.to_stmt n ] in
  let classify v =
    let rec index k = function
      | [] -> if Stmt.Sset.mem v defined then Variant else Sym v
      | i :: rest -> if String.equal i v then Index k else index (k + 1) rest
    in
    index 0 indices
  in
  let form = form_of ~levels:(List.length indices) ~classify in
  List.concat_map
    (fun (lv : Loop_nest.level) ->
      accesses_of_stmts form lv.Loop_nest.l_pre
      @ accesses_of_stmts form lv.Loop_nest.l_post)
    n.Loop_nest.levels
  @ accesses_of_stmts form n.Loop_nest.body

(* cap on the enumeration below: a nest with a bigger iteration-distance
   cross product reports unknown instead of burning time *)
let vector_budget = 200_000

(** All lexicographically-positive iteration-distance vectors between
    two accesses of the same array (one per nest level, outermost
    first; loop-independent all-zero vectors are dropped, and a vector
    whose leading nonzero is negative is reported through its
    negation).  [Some []] when the accesses provably never conflict
    across iterations; [None] when the forms or bounds defeat the
    analysis. *)
let distance_vectors (n : Loop_nest.t) (x : access) (y : access) :
    int array list option =
  match (x.acc_form, y.acc_form) with
  | Some fx, Some fy when fx.coeffs = fy.coeffs && fx.syms = fy.syms -> (
    let delta = fy.const - fx.const in
    let trips = List.map Loop_nest.level_trip_count n.Loop_nest.levels in
    if List.exists Option.is_none trips then None
    else
      let trips = List.map Option.get trips in
      if List.exists (fun t -> t = 0) trips then Some []
      else
        let steps =
          List.map (fun lv -> lv.Loop_nest.l_step) n.Loop_nest.levels
        in
        (* per-level index-space coefficient of the iteration distance *)
        let coeffs =
          List.map2 (fun c s -> c * s) (Array.to_list fx.coeffs) steps
        in
        let bounds = List.map (fun t -> t - 1) trips in
        (* stop multiplying once over budget, so the product cannot wrap *)
        let size =
          List.fold_left
            (fun acc b ->
              if acc > vector_budget || b > vector_budget then max_int
              else acc * ((2 * b) + 1))
            1 bounds
        in
        if size > vector_budget then None
        else
          let vectors =
            List.fold_left
              (fun acc b ->
                List.concat_map
                  (fun v -> List.init ((2 * b) + 1) (fun i -> (i - b) :: v))
                  acc)
              [ [] ] bounds
            |> List.map List.rev
          in
          let solves v =
            List.fold_left2 (fun s c d -> s + (c * d)) 0 coeffs v = delta
          in
          let normalize v =
            match List.find_opt (fun d -> d <> 0) v with
            | None -> None  (* loop-independent: preserved by any order *)
            | Some lead ->
              Some (if lead < 0 then List.map (fun d -> -d) v else v)
          in
          Some
            (List.filter solves vectors
            |> List.filter_map normalize
            |> List.sort_uniq compare
            |> List.map Array.of_list))
  | _ -> None
