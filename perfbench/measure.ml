(* Order statistics shared by main.ml and the workloads. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array ([q] in 0..1); 0 if empty. *)
let rank a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = rank (sorted l) 0.5

(* The tail reported for [n] samples: the highest percentile on this
   ladder with at least ten samples beyond it. *)
let tail_pct n =
  let beyond p = float_of_int n *. (100. -. p) /. 100. in
  match
    List.find_opt (fun p -> beyond p >= 10.) [ 99.99; 99.9; 99.; 95.; 90.; 75. ]
  with
  | Some p -> p
  | None -> 50.

(* (median, tail value, tail percentile) of a sample list *)
let summary l =
  let a = sorted l in
  let p = tail_pct (Array.length a) in
  (rank a 0.5, rank a (p /. 100.), p)
