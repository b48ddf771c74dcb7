(* Nearest-rank percentiles with a sample-size rule: a percentile is
   only reported when at least [min_beyond] samples lie beyond it, so a
   "p99" of a handful of samples (really their maximum) is refused
   rather than printed. *)

let min_beyond = 10

exception Refused of string

(* Samples beyond the nearest rank ceil(q n) that
   [Mrm_cluster.Loadgen.percentile] picks, by the same rank rule. *)
let beyond ~n q =
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  n - Int.max 1 (Int.min n rank)

(* Smallest sample count for which [q] is reportable. *)
let min_samples q =
  let rec go n = if n > 0 && beyond ~n q >= min_beyond then n else go (n + 1) in
  go 1

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [percentile samples q] with [0 < q < 1]; samples need not be sorted.
   @raise Refused when fewer than [min_beyond] samples lie beyond. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 || beyond ~n q < min_beyond then
    raise
      (Refused
         (Printf.sprintf "p%g of %d samples has %d beyond it (need %d, so %d samples)"
            (100. *. q) n
            (if n = 0 then 0 else beyond ~n q)
            min_beyond (min_samples q)));
  Mrm_cluster.Loadgen.percentile (sorted samples) q

(* Median of a few repetitions (set-up runs), not a distribution claim:
   the middle element, or the mean of the two middle ones. *)
let median_of_reps samples =
  let s = sorted samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median_of_reps: no samples"
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
