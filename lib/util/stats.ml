let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: empty array";
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then s.(lo)
  else
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
