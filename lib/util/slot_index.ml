(* Buckets hold slot numbers, -1 when empty; a slot's key is [keys.(slot)]
   in the caller's array. The size is a power of two kept at least twice
   the entries, so probe runs stay short. *)
type t = { mutable buckets : int array; mutable shift : int (* int_size - log2 size *) }

let create n =
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  { buckets = Array.make (1 lsl !bits) (-1); shift = Sys.int_size - !bits }

let capacity t = Array.length t.buckets / 2

(* Fibonacci hashing: the top bits of the product spread consecutive keys
   over the whole table. *)
let home t key = (key * 0x4F1BBCDCBFA53E0B) lsr t.shift

let find t ~keys key =
  let m = Array.length t.buckets - 1 in
  let h = ref (home t key) in
  let s = ref (Array.unsafe_get t.buckets !h) in
  while !s >= 0 && Array.unsafe_get keys !s <> key do
    h := (!h + 1) land m;
    s := Array.unsafe_get t.buckets !h
  done;
  !s

let add t key slot =
  let m = Array.length t.buckets - 1 in
  let h = ref (home t key) in
  while t.buckets.(!h) >= 0 do
    h := (!h + 1) land m
  done;
  t.buckets.(!h) <- slot

(* Backward-shift delete: each later entry of the run moves into the hole
   unless its home lies cyclically in (hole, entry]. *)
let remove t ~keys key =
  let m = Array.length t.buckets - 1 in
  let h = ref (home t key) in
  while keys.(t.buckets.(!h)) <> key do
    h := (!h + 1) land m
  done;
  let hole = ref !h and j = ref ((!h + 1) land m) in
  while t.buckets.(!j) >= 0 do
    let k = home t keys.(t.buckets.(!j)) in
    if (!j - k) land m >= (!j - !hole) land m then begin
      t.buckets.(!hole) <- t.buckets.(!j);
      hole := !j
    end;
    j := (!j + 1) land m
  done;
  t.buckets.(!hole) <- -1

(* Every entry lies in the run of full buckets that starts at its home, so
   emptying the run from each key's home empties the table. *)
let clear t ~keys n =
  let m = Array.length t.buckets - 1 in
  for s = 0 to n - 1 do
    let h = ref (home t keys.(s)) in
    while t.buckets.(!h) >= 0 do
      t.buckets.(!h) <- -1;
      h := (!h + 1) land m
    done
  done

let grow t ~keys n =
  t.buckets <- Array.make (2 * Array.length t.buckets) (-1);
  t.shift <- t.shift - 1;
  for s = 0 to n - 1 do
    add t keys.(s) s
  done
