(* Quantiles from raw samples.  Every latency quantile the benchmark
   reports comes from here: the samples are kept, sorted, and the
   quantile is interpolated linearly between the two closest ranks
   (the "R-7" rule used by numpy and spreadsheets), so a p50 is never
   the upper edge of a histogram bucket. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [a] must be sorted; nan for an empty sample *)
let quantile (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (sorted xs) 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* a ratio whose base may be empty: 0 rather than nan, so that a layer
   a workload never reaches reads as idle *)
let ratio num den = if den = 0. then 0. else num /. den
