(* Order statistics and rank agreement for the benchmark's metrics. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  value : float;
  percentile : float;  (** share of samples at or below [value], in % *)
  samples : int;
}

(* The highest percentile that still has ten samples above it: the sample
   with exactly ten larger ones in sorted order.  Fixing the count beyond
   it, not the percentile, keeps the tail on the same order statistic for
   every run of the same length. *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    Some
      {
        value = a.(n - 1 - beyond);
        percentile = 100. *. float_of_int (n - beyond) /. float_of_int n;
        samples = n;
      }

(* Kendall's tau-b between two rankings of the same items: ties in either
   ranking leave a pair neither concordant nor discordant and shrink the
   denominator.  [None] when one ranking ties every pair. *)
let kendall_tau xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Bstats.kendall_tau: length mismatch";
  let concordant = ref 0 and discordant = ref 0 and ties_x = ref 0 and ties_y = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dx = compare xs.(i) xs.(j) and dy = compare ys.(i) ys.(j) in
      if dx = 0 then incr ties_x;
      if dy = 0 then incr ties_y;
      if dx <> 0 && dy <> 0 then
        if dx = dy then incr concordant else incr discordant
    done
  done;
  let pairs = n * (n - 1) / 2 in
  let denom = sqrt (float_of_int (pairs - !ties_x) *. float_of_int (pairs - !ties_y)) in
  if denom = 0. then None
  else Some (float_of_int (!concordant - !discordant) /. denom)
