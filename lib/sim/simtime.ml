type t = int

let zero = 0
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = int_of_float (x *. 1e9)
let to_sec t = float_of_int t /. 1e9
let to_us t = float_of_int t /. 1e3
let max (a : t) (b : t) = if a > b then a else b

let pp fmt t =
  if t >= 1_000_000_000 then Format.fprintf fmt "%.3fs" (to_sec t)
  else if t >= 1_000_000 then Format.fprintf fmt "%.3fms" (float_of_int t /. 1e6)
  else if t >= 1_000 then Format.fprintf fmt "%.3fus" (float_of_int t /. 1e3)
  else Format.fprintf fmt "%dns" t
