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

module Histogram = struct
  type t = { bounds : float array; counts : int array; mutable total : int }

  let create ~buckets =
    let n = Array.length buckets in
    for i = 1 to n - 1 do
      assert (buckets.(i) > buckets.(i - 1))
    done;
    { bounds = buckets; counts = Array.make (n + 1) 0; total = 0 }

  let add t x =
    let n = Array.length t.bounds in
    let rec find i = if i >= n then n else if x <= t.bounds.(i) then i else find (i + 1) in
    let i = find 0 in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let counts t =
    Array.mapi
      (fun i c -> ((if i < Array.length t.bounds then t.bounds.(i) else infinity), c))
      t.counts

  let total t = t.total

  (* Linear interpolation inside the bucket holding the target rank. The
     lower edge of the first bucket is taken as 0 (the histograms here
     hold non-negative latencies); the open-ended overflow bucket cannot
     be interpolated, so it reports its finite lower edge. *)
  let percentile t p =
    if t.total = 0 then invalid_arg "Stats.Histogram.percentile: empty histogram";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Histogram.percentile: p out of [0,100]";
    let n = Array.length t.bounds in
    let rank = p /. 100.0 *. float_of_int t.total in
    let rec go i cum =
      if i > n then t.bounds.(n - 1)
      else
        let c = t.counts.(i) in
        if c > 0 && float_of_int (cum + c) >= rank then
          if i >= n then t.bounds.(n - 1)
          else
            let lo = if i = 0 then 0.0 else t.bounds.(i - 1) in
            let hi = t.bounds.(i) in
            let frac = (rank -. float_of_int cum) /. float_of_int c in
            lo +. (Float.max 0.0 frac *. (hi -. lo))
        else go (i + 1) (cum + c)
    in
    go 0 0
end
