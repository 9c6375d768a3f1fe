(** Bit-width inference over kernel DFGs (the back-end operator sizing
    of §5.4): conservative value ranges per node, widths, and a
    width-aware operator-area estimate.  Narrowing comes from what the
    body establishes — masks, byte extracts, ROM contents,
    comparisons — since live-ins and loads are unknown. *)

module Build = Uas_dfg.Build

type range = { lo : int; hi : int }

val full : range
val const : int -> range
val join : range -> range -> range

(** Per-node ranges, given ROM contents; [entry] supplies known entry
    ranges for live-in registers (loop-index bounds, bus widths).
    Loop-carried registers resolve through a short, sound descending
    fixpoint. *)
val node_ranges :
  ?rounds:int ->
  ?entry:(string -> range option) ->
  Build.detailed ->
  (string * int array) list ->
  range array

(** Bits needed (signed when the range is), capped at the 32-bit row
    model. *)
val width_bits : range -> int

(** Operator area with every operator scaled to its result width. *)
val operator_area :
  ?entry:(string -> range option) ->
  Build.detailed ->
  roms:(string * int array) list ->
  int
