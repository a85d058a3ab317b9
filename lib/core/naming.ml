open Asym_util

type t = {
  dev : Asym_nvm.Device.t;
  base : int;
  len : int;
  table : (string, Types.name_kind * Types.addr) Hashtbl.t;
  mutable persisted_len : int;
}

let serialize table =
  let e = Codec.Enc.create ~capacity:1024 () in
  Codec.Enc.u32i e (Hashtbl.length table);
  Hashtbl.iter
    (fun name (kind, addr) ->
      Codec.Enc.string e name;
      Codec.Enc.u8 e (Types.name_kind_code kind);
      Codec.Enc.u64i e addr)
    table;
  let body = Codec.Enc.to_bytes e in
  let out = Codec.Enc.create ~capacity:(Bytes.length body + 4) () in
  Codec.Enc.bytes out body;
  Codec.Enc.u32 out (Crc32.digest_bytes body);
  Codec.Enc.to_bytes out

let persist t =
  let b = serialize t.table in
  if Bytes.length b > t.len then failwith "Naming: naming area overflow";
  Asym_nvm.Device.write t.dev ~addr:t.base b;
  t.persisted_len <- Bytes.length b

let create dev ~base ~len =
  let t = { dev; base; len; table = Hashtbl.create 64; persisted_len = 0 } in
  persist t;
  t

let load dev ~base ~len =
  let raw = Asym_nvm.Device.read dev ~addr:base ~len in
  let d = Codec.Dec.of_bytes raw in
  let n = Codec.Dec.u32i d in
  let table = Hashtbl.create 64 in
  for _ = 1 to n do
    let name = Codec.Dec.string d in
    let kind = Types.name_kind_of_code (Codec.Dec.u8 d) in
    let addr = Codec.Dec.u64i d in
    Hashtbl.replace table name (kind, addr)
  done;
  let body_len = Codec.Dec.pos d in
  let crc = Codec.Dec.u32 d in
  if crc <> Crc32.digest raw ~pos:0 ~len:body_len then
    failwith "Naming.load: checksum mismatch";
  { dev; base; len; table; persisted_len = body_len + 4 }

let set t name kind addr =
  Hashtbl.replace t.table name (kind, addr);
  persist t

let find t name = Hashtbl.find_opt t.table name

let remove t name =
  Hashtbl.remove t.table name;
  persist t

let to_list t = Hashtbl.fold (fun name (kind, addr) acc -> (name, kind, addr) :: acc) t.table []
let persisted_len t = t.persisted_len
