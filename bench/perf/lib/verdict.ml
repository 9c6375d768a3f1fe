(* Comparing two sets of runs of one metric on one workload: the parent
   commit's runs [a] and the change's runs [b].

   - A change "worsens" a metric by the median difference in the
     metric's bad direction.  It may worsen by its bound — a share of
     the parent median, or the metric's absolute floor when that is
     larger, so a 3 ms latency is not held to 0.3 ms.
   - Where the run-to-run spread (the larger interquartile distance of
     the two sides) exceeds that allowance, the comparison cannot tell
     a regression from noise: the verdict is [Unresolved], unless every
     change run reads better than every parent run.
   - A gain is claimed only from at least [min_pairs] pairs of runs:
     the change must win at least 9 in 10 pairs (ties count for
     neither), and the medians must differ by more than the parent's
     own interquartile distance. *)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type t = Improved | No_worse | Regressed | Unresolved

let to_string = function
  | Improved -> "improved"
  | No_worse -> "no-worse"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let min_pairs = 10

(* Absolute floors under the relative bounds: set-up time is compared
   to 50 ms and latencies to 1 ms at the finest. *)
let floor ~name ~unit_ =
  if String.equal name "setup_s" then 0.05
  else if String.equal unit_ "ms" then 1.0
  else 0.0

(* [x] is better than [y] *)
let beats better x y = match better with Lower -> x < y | Higher -> x > y

let worsening better ~parent ~change =
  match better with Lower -> change -. parent | Higher -> parent -. change

let iqr xs =
  let q1, _, q3 = Stats.quartiles xs in
  q3 -. q1

let wins better a b =
  let rec go acc a b =
    match (a, b) with
    | x :: a, y :: b -> go (if beats better y x then acc + 1 else acc) a b
    | _ -> acc
  in
  go 0 a b

let verdict ~better ~bound ~floor:fl (a : float list) (b : float list) : t =
  let ma = Stats.median a and mb = Stats.median b in
  let allowed = Float.max (bound *. Float.abs ma) fl in
  let pairs = min (List.length a) (List.length b) in
  let gain_claimed =
    pairs >= min_pairs
    && 10 * wins better a b >= 9 * pairs
    && Float.abs (mb -. ma) > iqr a
    && beats better mb ma
  in
  let every_better = List.for_all (fun y -> List.for_all (beats better y) a) b in
  if gain_claimed then Improved
  else if Float.max (iqr a) (iqr b) > allowed && not every_better then
    Unresolved
  else if worsening better ~parent:ma ~change:mb > allowed then Regressed
  else No_worse
