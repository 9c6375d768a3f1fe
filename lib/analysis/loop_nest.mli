(** The loop nests the transforms operate on (§4.1), at any depth: a
    maximal chain of counted FOR loops where each level's body is
    [pre; next-FOR; post] with loop-free bands, and the innermost body
    is loop-free.  The adjacent-pair transforms address a nest through
    the {!pair} view at one level.  Shape only; requirements are
    checked by {!Legality}. *)

open Uas_ir

(** One loop level: index, bounds, step, and the statement bands around
    the next-deeper loop (empty at the innermost level). *)
type level = {
  l_index : Types.var;
  l_lo : Expr.t;
  l_hi : Expr.t;
  l_step : int;
  l_pre : Stmt.t list;
  l_post : Stmt.t list;
}

(** A depth-general nest: the ordered levels (outermost first, at least
    two) and the loop-free innermost body. *)
type t = { levels : level list; body : Stmt.t list }

(** The adjacent-pair view at one level — the shape unroll-and-squash /
    unroll-and-jam operate on.  [inner_body] folds everything below the
    inner level back into statements, so a pair deep inside a bigger
    nest is self-contained. *)
type pair = {
  outer_index : Types.var;
  outer_lo : Expr.t;
  outer_hi : Expr.t;
  outer_step : int;
  pre : Stmt.t list;
  inner_index : Types.var;
  inner_lo : Expr.t;
  inner_hi : Expr.t;
  inner_step : int;
  inner_body : Stmt.t list;
  post : Stmt.t list;
}

(** Number of levels (>= 2). *)
val depth : t -> int

(** Rebuild the whole nest as a statement. *)
val to_stmt : t -> Stmt.t

(** The pair view at levels [k]/[k+1] (0-based, outermost first).
    @raise Invalid_argument when [k] has no level below it. *)
val pair_at : t -> int -> pair

(** Rebuild a pair view as a statement. *)
val pair_to_stmt : pair -> Stmt.t

(** All maximal nests of the program, outermost first.  Loops whose
    bodies break the nest shape are skipped, but nests inside them are
    still found. *)
val find : Stmt.program -> t list

(** The pair view headed by the level named [index], or [None].  Any
    level but the innermost of any nest can head a pair. *)
val find_by_outer_index_opt : Stmt.program -> string -> pair option

(** @raise Not_found when no nest level with this index heads a pair. *)
val find_by_outer_index : Stmt.program -> string -> pair

(** The maximal nest holding a non-innermost level named [index]. *)
val find_nest_opt : Stmt.program -> string -> t option

(** The 0-based position of the non-innermost level named [index] in
    the nest, or [None]. *)
val level_position : t -> string -> int option

(** Depth of the nest suffix rooted at the level named [index] (the
    middle level of a 3-deep nest has suffix depth 2), or [None] when
    no pair is headed there. *)
val depth_at : Stmt.program -> string -> int option

(** Every addressable (index, suffix depth) of every maximal nest, in
    program order — the catalog a driver prints when a requested
    target names no nest. *)
val summary : Stmt.program -> (string * int) list

(** Replace the first loop with the given index.
    @raise Not_found when absent. *)
val replace :
  Stmt.program -> outer_index:string -> Stmt.t list -> Stmt.program

(** Static trip counts, when bounds are constants. *)
val outer_trip_count : pair -> int option

val inner_trip_count : pair -> int option
val level_trip_count : level -> int option

(** [pre @ inner_body @ post]. *)
val all_stmts : pair -> Stmt.t list

(** Scalars referenced anywhere in the pair, bounds and indices
    included. *)
val scalars : pair -> Stmt.Sset.t
