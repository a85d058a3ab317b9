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

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The slicing-by-8 loop: the CRC state [c] (pre-inverted) after the
   [len] bytes at [pos]. Every index below is an input byte or a CRC byte
   (< 256) plus a table offset, and every load lies in the slice [digest]
   checked on entry. *)
let table_fold c b ~pos ~len =
  let t = tables in
  let c = ref c in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    (* One 64-bit load per 8 bytes. [Int64.to_int] keeps only 63 bits, so
       the high half is shifted down as an int64 first: bit 63 survives. *)
    let w = get64u b !i in
    let w = if Sys.big_endian then swap64 w else w in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

(* The carry-less multiply fold (crc32_stubs.c): the same state as
   [table_fold] for [len >= 64] bytes, [len] a multiple of 16. *)
external clmul_fold :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "asym_crc32_clmul_fold_byte" "asym_crc32_clmul_fold"
[@@noalloc]

external clmul_supported : unit -> bool = "asym_crc32_clmul_supported" [@@noalloc]

let clmul = clmul_supported ()
let kernel = if clmul then "clmul" else "table"

(* [digest] runs the fold on whole 16-byte blocks of a slice of 64 bytes
   or more and the loop on the rest; [table_digest] runs the loop alone. *)
let digest_with ~clmul ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.digest";
  let c = Int32.to_int init land 0xFFFFFFFF lxor 0xFFFFFFFF in
  let c =
    if clmul && len >= 64 then
      let n = len land lnot 15 in
      table_fold (clmul_fold b pos n c) b ~pos:(pos + n) ~len:(len - n)
    else table_fold c b ~pos ~len
  in
  Int32.of_int (c lxor 0xFFFFFFFF)

let digest ?init b ~pos ~len = digest_with ~clmul ?init b ~pos ~len
let table_digest ?init b ~pos ~len = digest_with ~clmul:false ?init b ~pos ~len
let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
