(* Percentiles are handled in tenths of a percent so that ranks come
   from integer arithmetic: 0.99 *. 1000. is not exactly 990. *)
let rank ~n p =
  let p10 = int_of_float (Float.round (p *. 10.)) in
  max 1 (((p10 * n) + 999) / 1000)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  sorted.(min n (rank ~n p) - 1)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile a 50.

let beyond ~n p = n - min n (rank ~n p)

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let supported_percentile ~n ~want =
  match List.find_opt (fun p -> p <= want && beyond ~n p >= 10) ladder with
  | Some p -> p
  | None -> 50.

let tail sorted ~want =
  let p = supported_percentile ~n:(Array.length sorted) ~want in
  (p, percentile sorted p)
