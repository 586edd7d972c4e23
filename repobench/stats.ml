(* Order statistics of timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default): the
   [q]-quantile of [n] sorted samples sits at position [q * (n - 1)]. *)
let percentile q xs =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0, 1]";
  let a = sorted xs in
  let pos = q *. float_of_int (Array.length a - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (Array.length a - 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = percentile 0.5 xs

(* The highest of p50/p90/p99/p99.9 that still has at least ten samples
   above it, so a reported tail is never one outlier. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let q =
    List.fold_left
      (fun best q -> if n *. (1.0 -. q) >= 10.0 -. 1e-6 then q else best)
      0.5 [ 0.5; 0.9; 0.99; 0.999 ]
  in
  (q, percentile q xs)
