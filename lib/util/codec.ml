module Enc = struct
  type t = { mutable buf : bytes; mutable len : int; growable : bool }

  let create ?(capacity = 64) () =
    { buf = Bytes.create (max 8 capacity); len = 0; growable = true }

  let into buf ~pos = { buf; len = pos; growable = false }
  let length t = t.len

  let ensure t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      if not t.growable then invalid_arg "Codec.Enc: write past the end of a fixed buffer";
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf 0 nb 0 t.len;
      t.buf <- nb
    end

  let u8 t v =
    ensure t 1;
    Bytes.set_uint8 t.buf t.len v;
    t.len <- t.len + 1

  let u16 t v =
    ensure t 2;
    Bytes.set_uint16_le t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_le t.buf t.len v;
    t.len <- t.len + 4

  let u32i t v = u32 t (Int32.of_int v)

  let u64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  let u64i t v = u64 t (Int64.of_int v)

  let bytes t b =
    let n = Bytes.length b in
    ensure t n;
    Bytes.blit b 0 t.buf t.len n;
    t.len <- t.len + n

  let raw_string t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let string t s =
    u32i t (String.length s);
    raw_string t s

  let to_bytes t = Bytes.sub t.buf 0 t.len
end

module Dec = struct
  type t = { buf : bytes; mutable pos : int; lim : int }

  let of_bytes ?(pos = 0) ?lim buf =
    let lim = match lim with Some l -> min l (Bytes.length buf) | None -> Bytes.length buf in
    { buf; pos; lim }

  let pos t = t.pos
  let remaining t = t.lim - t.pos

  let check t n =
    if t.pos + n > t.lim then
      invalid_arg
        (Printf.sprintf "Codec.Dec: out of bounds (pos=%d need=%d len=%d)" t.pos n t.lim)

  let u8 t =
    check t 1;
    let v = Bytes.get_uint8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    check t 2;
    let v = Bytes.get_uint16_le t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    check t 4;
    let v = Bytes.get_int32_le t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let u32i t = Int32.to_int (u32 t) land 0xFFFFFFFF

  let u64 t =
    check t 8;
    let v = Bytes.get_int64_le t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let u64i t =
    let v = u64 t in
    if v < 0L || v > Int64.of_int max_int then
      invalid_arg "Codec.Dec.u64i: value does not fit in int";
    Int64.to_int v

  let bytes t n =
    check t n;
    let b = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    b

  let string t =
    let n = u32i t in
    Bytes.to_string (bytes t n)

  let skip t n =
    check t n;
    t.pos <- t.pos + n
end

let get_u8 = Bytes.get_uint8
let set_u8 = Bytes.set_uint8
let get_u16 = Bytes.get_uint16_le
let set_u16 = Bytes.set_uint16_le
let get_u32 = Bytes.get_int32_le
let set_u32 = Bytes.set_int32_le
let get_u64 = Bytes.get_int64_le
let set_u64 = Bytes.set_int64_le

let u64_of_int = Int64.of_int

let int_of_u64 v =
  if v < 0L || v > Int64.of_int max_int then
    invalid_arg "Codec.int_of_u64: value does not fit in int";
  Int64.to_int v
