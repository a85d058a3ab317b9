(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would allocate a box on every draw. *)
type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA'14). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let split t = create ~seed:(mix (next_int64 t))

let bits30 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  assert (bound > 0);
  if bound <= 1 lsl 30 then bits30 t mod bound
  else
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    v mod bound

(* [x mod n] for a 30-bit [x] by multiply and shift (Granlund and
   Montgomery, "Division by invariant integers using multiplication",
   PLDI'94, Thm 4.2): with [l = ceil (log2 n)] and
   [m = 2^(30+l) / n + 1], [x / n = (x * m) lsr (30 + l)] exactly for every
   [x < 2^30], and [x * m < 2^61] fits an OCaml int. *)
type bound = { n : int; m : int; shift : int }

let bound n =
  if n <= 0 || n > 1 lsl 30 then invalid_arg "Rng.bound";
  let l = ref 0 in
  while 1 lsl !l < n do
    incr l
  done;
  { n; m = (1 lsl (30 + !l)) / n + 1; shift = 30 + !l }

let[@inline] rem b x = x - ((x * b.m) lsr b.shift * b.n)

let argmin t b ~draws keys =
  (* The state advances by [golden_gamma] per draw, as in [next_int64]; it
     stays in a local so the loop neither allocates nor stores. A strict
     minimum keeps the first of equal keys; the select is a mask, not a
     branch (keys are non-negative, so the difference cannot overflow). *)
  let s = ref (get64 t 0) in
  let best = ref 0 and best_key = ref 0 in
  for i = 1 to Int.max 1 draws do
    s := Int64.add !s golden_gamma;
    let p = rem b (Int64.to_int (Int64.shift_right_logical (mix !s) 34)) in
    let k = keys.(p) in
    let take = if i = 1 then -1 else (k - !best_key) asr 62 in
    best := !best lxor ((p lxor !best) land take);
    best_key := !best_key lxor ((k lxor !best_key) land take)
  done;
  set64 t 0 !s;
  !best

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t =
  (* 53 uniform bits scaled into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
