(* Array dependence analysis for loop nests (§3.2, §4.2).

   For the adjacent-pair view the transforms are stated over, index
   expressions are abstracted as affine forms

       ci * i  +  cj * j  +  c0  +  Σ ck * symbolic invariants

   in the outer index [i] and inner index [j].  Two accesses to the same
   array are compared with the classic ZIV / strong-SIV / GCD tests to
   bound the *outer-loop dependence distance* — the quantity the
   unroll-and-squash legality cases of §4.2 are stated over.

   For a full depth-d nest, the same abstraction generalizes to one
   coefficient per level ({!level_affine}); solving the resulting
   diophantine equation over the per-level iteration ranges yields the
   classic *distance vectors*, which interchange's deep check consumes
   to decide loop-order legality at an adjacent level pair buried in a
   deeper nest. *)

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

let sym_equal xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun (v, a) (w, b) -> String.equal v w && a = b)
       xs ys

type affine = {
  ci : int;  (** coefficient of the outer index *)
  cj : int;  (** coefficient of the inner index *)
  c0 : int;  (** constant part *)
  sym : (string * int) list;
      (** sorted additive loop-invariant symbols with coefficients *)
}

let affine_const n = { ci = 0; cj = 0; c0 = n; sym = [] }

(* Unique straight-line definitions usable for substitution when
   extracting affine forms: scalars assigned exactly once in [pre] and
   nowhere else in the nest.  Loop-body definitions are iteration-variant
   and must not be chased across iterations, so they are excluded. *)
let pre_defs (nest : Loop_nest.pair) : Expr.t Smap.t =
  let all = Loop_nest.all_stmts nest in
  List.fold_left
    (fun m s ->
      match s with
      | Stmt.Assign (v, e) when Induction.count_defs v all = 1 ->
        Smap.add v e m
      | _ -> m)
    Smap.empty nest.Loop_nest.pre

let add_sym a b =
  { ci = a.ci + b.ci;
    cj = a.cj + b.cj;
    c0 = a.c0 + b.c0;
    sym = sym_add a.sym b.sym }

let scale k a =
  { ci = k * a.ci; cj = k * a.cj; c0 = k * a.c0; sym = sym_scale k a.sym }

(** Affine form of [e] in terms of the pair's indices; [None] when the
    expression is not (recognizably) affine. *)
let affine_of (nest : Loop_nest.pair) (e : Expr.t) : affine option =
  let defs = pre_defs nest in
  let defined = Stmt.defs (Loop_nest.all_stmts nest) in
  let rec go depth (e : Expr.t) : affine option =
    if depth > 16 then None
    else
      match Expr.simplify e with
      | Expr.Int n -> Some (affine_const n)
      | Expr.Var v ->
        if String.equal v nest.outer_index then
          (* in terms of the index *value*; distances are converted to
             iteration units in [outer_distance] *)
          Some { ci = 1; cj = 0; c0 = 0; sym = [] }
        else if String.equal v nest.inner_index then
          Some { ci = 0; cj = 1; c0 = 0; sym = [] }
        else if Smap.mem v defs then go (depth + 1) (Smap.find v defs)
        else if Stmt.Sset.mem v defined then None  (* iteration-variant *)
        else Some { ci = 0; cj = 0; c0 = 0; sym = [ (v, 1) ] }
      | Expr.Binop (Types.Add, a, b) -> (
        match (go (depth + 1) a, go (depth + 1) b) with
        | Some x, Some y -> Some (add_sym x y)
        | _ -> None)
      | Expr.Binop (Types.Sub, a, b) -> (
        match (go (depth + 1) a, go (depth + 1) b) with
        | Some x, Some y -> Some (add_sym x (scale (-1) y))
        | _ -> None)
      | Expr.Binop (Types.Mul, Expr.Int k, a)
      | Expr.Binop (Types.Mul, a, Expr.Int k) ->
        Option.map (scale k) (go (depth + 1) a)
      | Expr.Binop (Types.Shl, a, Expr.Int k) when k >= 0 && k < 31 ->
        Option.map (scale (1 lsl k)) (go (depth + 1) a)
      | _ -> None
  in
  go 0 e

(** Outer-loop dependence distance between two accesses, in *outer
    iterations* (index-space distance divided by the outer step is the
    caller's concern; we report index-space distances of the outer
    index variable's values, normalized to iteration counts using the
    step). *)
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
  acc_in_inner : bool;  (** the access sits in the inner-loop body *)
}

let accesses_of_expr in_inner e =
  List.rev
    (Expr.fold
       (fun acc e ->
         match e with
         | Expr.Load (a, i) ->
           { acc_array = a; acc_index = i; acc_is_write = false;
             acc_in_inner = in_inner }
           :: acc
         | _ -> acc)
       [] e)

let rec accesses_of_stmts in_inner stmts =
  List.concat_map
    (fun s ->
      match s with
      | Stmt.Assign (_, e) -> accesses_of_expr in_inner e
      | Stmt.Store (a, i, e) ->
        accesses_of_expr in_inner i
        @ accesses_of_expr in_inner e
        @ [ { acc_array = a; acc_index = i; acc_is_write = true;
              acc_in_inner = in_inner } ]
      | Stmt.If (c, t, f) ->
        accesses_of_expr in_inner c
        @ accesses_of_stmts in_inner t
        @ accesses_of_stmts in_inner f
      | Stmt.For l -> accesses_of_stmts in_inner l.body)
    stmts

(** Every array access of the pair. *)
let accesses (nest : Loop_nest.pair) : access list =
  accesses_of_stmts false nest.Loop_nest.pre
  @ accesses_of_stmts true nest.inner_body
  @ accesses_of_stmts false nest.post

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Solve a*di + b*dj = delta for the range of di, with dj ranging over
   the inner index-value differences {-(n-1)*s, ..., (n-1)*s} when the
   inner trip count [n] and step [s] are known, and di bounded by the
   outer iteration range when [outer_trips] is known. *)
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
      (* di = (delta - b*dj)/a over integer solutions *)
      let candidates = ref [] in
      for t = -(n - 1) to n - 1 do
        let dj = t * inner_step in
        let num = delta - (b * dj) in
        if num mod a = 0 && di_possible (num / a) then
          candidates := (num / a) :: !candidates
      done;
      (match !candidates with
      | [] -> No_dependence
      | ds ->
        let lo = List.fold_left min max_int ds in
        let hi = List.fold_left max min_int ds in
        if lo = hi then Exact lo else Within (lo, hi))

(** Outer dependence distance between two accesses of the same array.
    The result is in units of outer *iterations* (the affine outer
    coefficients already absorb the index step because the index
    variable itself advances by [outer_step]; we renormalize below). *)
let outer_distance (nest : Loop_nest.pair) (x : access) (y : access) :
    outer_distance =
  if not (String.equal x.acc_array y.acc_array) then No_dependence
  else if not (x.acc_is_write || y.acc_is_write) then No_dependence
  else
    match (affine_of nest x.acc_index, affine_of nest y.acc_index) with
    | Some ax, Some ay
      when ax.ci = ay.ci && ax.cj = ay.cj && sym_equal ax.sym ay.sym ->
      let inner_trips = Loop_nest.inner_trip_count nest in
      let d =
        solve_distance ~inner_trips ~inner_step:nest.inner_step
          ~outer_trips:(Loop_nest.outer_trip_count nest) ax.ci ax.cj
          (ay.c0 - ax.c0)
      in
      (* index-space distance -> iteration distance *)
      let step = nest.outer_step in
      let norm v =
        if step = 1 then Some v
        else if v mod step = 0 then Some (v / step)
        else None
      in
      (match d with
      | No_dependence -> No_dependence
      | Any -> Any
      | Exact v -> (
        match norm v with Some v -> Exact v | None -> No_dependence)
      | Within (a, b) ->
        if step = 1 then Within (a, b)
        else
          (* conservative: round the interval outward in iteration units *)
          Within
            ( (if a >= 0 then a / step else -((-a + step - 1) / step)),
              if b >= 0 then (b + step - 1) / step
              else -(-b / step) ))
    | _ -> Any

(** All dependent pairs of the nest (at least one write, same array),
    with their outer distances. *)
let all_pairs (nest : Loop_nest.pair) : (access * access * outer_distance) list
    =
  let accs = accesses nest in
  let rec pairs = function
    | [] -> []
    | x :: rest ->
      List.filter_map
        (fun y ->
          if
            String.equal x.acc_array y.acc_array
            && (x.acc_is_write || y.acc_is_write)
          then Some (x, y, outer_distance nest x y)
          else None)
        (x :: rest)  (* include self-pairs: a store conflicts with itself *)
      @ pairs rest
  in
  pairs accs

(* --- depth-general forms: one coefficient per nest level --- *)

type level_affine = {
  la_coeffs : int list;  (** per level, outermost first *)
  la_const : int;
  la_sym : (string * int) list;
}

(** Affine form of [e] over all levels of a depth-d nest.  Scalars
    defined anywhere inside the nest (other than the indices) are
    iteration-variant at some level and make the form unrecognizable —
    conservative, but exact on perfect nests. *)
let level_affine_of (n : Loop_nest.t) (e : Expr.t) : level_affine option =
  let indices = List.map (fun lv -> lv.Loop_nest.l_index) n.Loop_nest.levels in
  let defined = Stmt.defs [ Loop_nest.to_stmt n ] in
  let zero = List.map (fun _ -> 0) indices in
  let unit k = List.mapi (fun i _ -> if i = k then 1 else 0) indices in
  let index_pos v =
    let rec go k = function
      | [] -> None
      | i :: rest -> if String.equal i v then Some k else go (k + 1) rest
    in
    go 0 indices
  in
  let cadd = List.map2 ( + ) in
  let cscale k = List.map (fun c -> k * c) in
  let ladd x y =
    { la_coeffs = cadd x.la_coeffs y.la_coeffs;
      la_const = x.la_const + y.la_const;
      la_sym = sym_add x.la_sym y.la_sym }
  in
  let lscale k x =
    { la_coeffs = cscale k x.la_coeffs;
      la_const = k * x.la_const;
      la_sym = sym_scale k x.la_sym }
  in
  let rec go depth (e : Expr.t) : level_affine option =
    if depth > 16 then None
    else
      match Expr.simplify e with
      | Expr.Int c -> Some { la_coeffs = zero; la_const = c; la_sym = [] }
      | Expr.Var v -> (
        match index_pos v with
        | Some k -> Some { la_coeffs = unit k; la_const = 0; la_sym = [] }
        | None ->
          if Stmt.Sset.mem v defined then None
          else Some { la_coeffs = zero; la_const = 0; la_sym = [ (v, 1) ] })
      | Expr.Binop (Types.Add, a, b) -> (
        match (go (depth + 1) a, go (depth + 1) b) with
        | Some x, Some y -> Some (ladd x y)
        | _ -> None)
      | Expr.Binop (Types.Sub, a, b) -> (
        match (go (depth + 1) a, go (depth + 1) b) with
        | Some x, Some y -> Some (ladd x (lscale (-1) y))
        | _ -> None)
      | Expr.Binop (Types.Mul, Expr.Int k, a)
      | Expr.Binop (Types.Mul, a, Expr.Int k) ->
        Option.map (lscale k) (go (depth + 1) a)
      | Expr.Binop (Types.Shl, a, Expr.Int k) when k >= 0 && k < 31 ->
        Option.map (lscale (1 lsl k)) (go (depth + 1) a)
      | _ -> None
  in
  go 0 e

(** Every array access of a full nest: band accesses at every level
    plus the innermost body ([acc_in_inner] marks the latter). *)
let nest_accesses (n : Loop_nest.t) : access list =
  List.concat_map
    (fun (lv : Loop_nest.level) ->
      accesses_of_stmts false lv.Loop_nest.l_pre
      @ accesses_of_stmts false lv.Loop_nest.l_post)
    n.Loop_nest.levels
  @ accesses_of_stmts true n.Loop_nest.body

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
  if
    (not (String.equal x.acc_array y.acc_array))
    || not (x.acc_is_write || y.acc_is_write)
  then Some []
  else
    match (level_affine_of n x.acc_index, level_affine_of n y.acc_index) with
    | Some ax, Some ay
      when ax.la_coeffs = ay.la_coeffs && sym_equal ax.la_sym ay.la_sym -> (
      let delta = ay.la_const - ax.la_const in
      let trips =
        List.map Loop_nest.level_trip_count n.Loop_nest.levels
      in
      if List.exists Option.is_none trips then None
      else
        let trips = List.map Option.get trips in
        if List.exists (fun t -> t = 0) trips then Some []
        else
          let steps =
            List.map (fun lv -> lv.Loop_nest.l_step) n.Loop_nest.levels
          in
          (* per-level index-space coefficient of the iteration distance *)
          let coeffs = List.map2 (fun c s -> c * s) ax.la_coeffs steps in
          let bounds = List.map (fun t -> t - 1) trips in
          let size =
            List.fold_left (fun acc b -> acc * ((2 * b) + 1)) 1 bounds
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
