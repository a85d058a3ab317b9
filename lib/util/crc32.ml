(* Slicing-by-8 (Kounavis and Berry, 2008) over native ints. [tables]
   holds eight 256-entry tables back to back: table 0 is the classic
   reflected IEEE table, and entry [n] of table [k] is the CRC of byte [n]
   followed by [k] zero bytes, so one step folds eight input bytes with
   eight lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let digest ?(init = 0l) b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let t = tables in
  let c = ref (Int32.to_int init land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      t.((7 * 256) + (lo land 0xFF))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xFF))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := t.((!c lxor Bytes.get_uint8 b j) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
