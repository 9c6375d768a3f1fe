(* Order statistics for the benchmark's reports.

   Quartiles follow Python's [statistics.quantiles(values, n=4)]
   (method "exclusive"), so the quartiles this program prints are the
   ones an outside reader recomputes from the same values.  Tail
   latencies follow the nearest-rank definition, and a percentile is
   only reported when at least [min_above] samples lie above it: a p90
   of 40 samples is one slow request, not a tail. *)

let min_above = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [statistics.quantiles(data, n=4)]: with m = len + 1, cut point i
   interpolates between the (i*m/4)-th and the next order statistic. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it. *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let samples_above ~p n = n - rank ~p n

let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else
    let above = samples_above ~p n in
    if above < min_above then
      Error
        (Printf.sprintf "p%g of %d samples has %d above it (need %d)" p n above
           min_above)
    else Ok a.(rank ~p n - 1)
