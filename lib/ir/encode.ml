(* A compact structural encoding of a program: one tag byte per
   constructor, every list and string prefixed by its length, every
   integer as a zigzag varint, operators by their [Types] names (which
   are distinct).  Each part is self-delimiting, so the
   encoding is injective on what it covers: every field [Pp] prints.

   Floats are encoded by their bits after [+. 0.], which turns -0 into
   0 exactly as [Pp]'s "%g" does; two floats "%g" prints alike keep
   distinct encodings, so equal encodings imply equal canonical
   texts, not the converse. *)

open Types

(* zigzag maps small magnitudes of either sign to small unsigned words;
   the varint then takes 7 bits per byte, the high bit marking "more" *)
let int b n =
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr z)
    else (
      Buffer.add_char b (Char.unsafe_chr (z land 0x7f lor 0x80));
      go (z lsr 7))
  in
  go ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let tag b n = Buffer.add_char b (Char.unsafe_chr n)

let string b s =
  int b (String.length s);
  Buffer.add_string b s

let list f b l =
  int b (List.length l);
  List.iter (f b) l

let ty b t = tag b (match t with Tint -> 0 | Tfloat -> 1)

let rec expr b (e : Expr.t) =
  match e with
  | Int n -> tag b 0; int b n
  | Float f -> tag b 1; Buffer.add_int64_le b (Int64.bits_of_float (f +. 0.))
  | Var v -> tag b 2; string b v
  | Load (a, i) -> tag b 3; string b a; expr b i
  | Rom (r, i) -> tag b 4; string b r; expr b i
  | Unop (o, x) -> tag b 5; string b (unop_name o); expr b x
  | Binop (o, l, r) ->
    tag b 6; string b (binop_name o); expr b l; expr b r
  | Select (c, t, f) -> tag b 7; expr b c; expr b t; expr b f

let rec stmt b (s : Stmt.t) =
  match s with
  | Assign (x, e) -> tag b 0; string b x; expr b e
  | Store (a, i, e) -> tag b 1; string b a; expr b i; expr b e
  | If (c, t, e) -> tag b 2; expr b c; list stmt b t; list stmt b e
  | For l ->
    tag b 3;
    string b l.index;
    expr b l.lo;
    expr b l.hi;
    int b l.step;
    list stmt b l.body

let scalar b (x, t) = string b x; ty b t

let array_decl b (d : Stmt.array_decl) =
  string b d.a_name;
  tag b (match d.a_kind with Stmt.Input -> 0 | Output -> 1 | Local -> 2);
  ty b d.a_ty;
  int b d.a_size

let rom_decl b (r : Stmt.rom_decl) =
  string b r.r_name;
  int b (Array.length r.r_data);
  Array.iter (int b) r.r_data

let program (p : Stmt.program) =
  let b = Buffer.create 1024 in
  string b p.prog_name;
  list scalar b p.params;
  list array_decl b p.arrays;
  list rom_decl b p.roms;
  list scalar b p.locals;
  list stmt b p.body;
  Buffer.contents b

let digest p = Digest.string (program p)
