(* A 3-deep lifting-wavelet-style kernel (Table 1.1's cascade shape):
   bands of rows of taps.  The outer two loops (b, r) walk 32 row
   slots; the innermost c loop folds 8 taps of the row through an
   integer lifting recurrence

       acc' = ((acc + s) >> 1) ^ ((acc - s + wk) & 255)

   whose cyclic dependence keeps the inner II well above the minimum —
   the same pressure that motivates unroll-and-squash on the 2-deep
   suite.  Because the nest is 3 deep, the raw squash is illegal
   (the candidate inner body contains a loop); the enabling route is
   flatten (b, r) into one 32-trip loop, then squash that pair.  The
   row pointer [p] is a genuine cross-row induction variable: after
   flattening, induction analysis rewrites it to [pbase + t], keeping
   every array access affine despite the div/mod recomputes flatten
   introduces.

   A host implementation mirrors the IR operation-for-operation
   ([>>] is [asr], [&] is [land], [^] is [lxor]) so verification can
   require bit-identical integers from both interpreters. *)

open Uas_ir
module B = Builder

let bands = 4
let rows_per_band = 8
let taps = 8
let rows = bands * rows_per_band
let img_len = rows * taps

(* --- host reference --- *)

(** Fold one row of [taps] samples, matching the IR operation order
    exactly. *)
let fold_row (img : int array) (coeff : int array) ~p : int =
  let acc = ref 0 in
  let wk = coeff.(p mod rows_per_band) in
  for c = 0 to taps - 1 do
    let s = img.((p * taps) + c) in
    let lo = (!acc + s) asr 1 in
    let hi = (!acc - s + wk) land 255 in
    acc := lo lxor hi
  done;
  !acc

(** All [rows] row signatures, row-major ([p] = band * rows_per_band +
    row). *)
let transform (img : int array) (coeff : int array) : int array =
  Array.init rows (fun p -> fold_row img coeff ~p)

(* --- IR benchmark program --- *)

let locals =
  List.map
    (fun n -> (n, Types.Tint))
    [ "b"; "r"; "c"; "p"; "acc"; "wk"; "s"; "lo"; "hi" ]

(** The 3-deep wavelet nest.  The (b, r) pair is perfect — [b]'s body
    is exactly the [r] loop — so flatten can collapse it; the inner
    [c] loop is the loop-free kernel squash then targets. *)
let wavelet3 () : Stmt.program =
  let open B in
  B.program "wavelet3" ~locals
    ~arrays:
      [ B.input ~ty:Types.Tint "img" img_len;
        B.input ~ty:Types.Tint "coeff" rows_per_band;
        B.output ~ty:Types.Tint "row_out" rows ]
    [ ("p" <-- int 0);
      for_ "b" ~hi:(int bands)
        [ for_ "r" ~hi:(int rows_per_band)
            ([ ("acc" <-- int 0); ("wk" <-- load "coeff" (v "r")) ]
            @ [ for_ "c" ~hi:(int taps)
                  [ ("s" <-- load "img" ((v "p" * int taps) + v "c"));
                    ("lo" <-- shr (v "acc" + v "s") (int 1));
                    ("hi" <-- band (v "acc" - v "s" + v "wk") (int 255));
                    ("acc" <-- bxor (v "lo") (v "hi")) ]
              ]
            @ [ store "row_out" (v "p") (v "acc"); ("p" <-- v "p" + int 1) ])
        ]
    ]

(* --- workloads --- *)

let random_image ~seed =
  let rng = Random.State.make [| seed; 0x3a7 |] in
  Array.init img_len (fun _ -> Random.State.int rng 256)

let random_coeffs ~seed =
  let rng = Random.State.make [| seed; 0xc0e |] in
  Array.init rows_per_band (fun _ -> Random.State.int rng 64)

let workload (img : int array) (coeff : int array) : Interp.workload =
  Interp.workload
    ~arrays:
      [ ("img", Array.map (fun x -> Types.VInt x) img);
        ("coeff", Array.map (fun x -> Types.VInt x) coeff) ]
    ()
