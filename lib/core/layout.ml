let magic = 0x4153594D4E564D31L (* "ASYMNVM1" *)
let superblock_len = 256
let session_slot_len = 64
let slot_lpn = 0
let slot_opn = 8
let slot_tail = 16
let slot_inuse = 24
let slot_cursors_len = 24

type t = {
  capacity : int;
  max_sessions : int;
  naming_base : int;
  naming_len : int;
  sessions_base : int;
  meta_base : int;
  meta_len : int;
  bitmap_base : int;
  bitmap_len : int;
  memlog_base : int;
  memlog_cap : int;
  oplog_base : int;
  oplog_cap : int;
  slab_size : int;
  data_base : int;
  n_slabs : int;
}

let align_up x a = (x + a - 1) / a * a

let compute ?(naming_len = 64 * 1024) ?(meta_len = 256 * 1024) ?(memlog_cap = 4 * 1024 * 1024)
    ?(oplog_cap = 2 * 1024 * 1024) ?(slab_size = 4096) ~capacity ~max_sessions () =
  if max_sessions < 1 then invalid_arg "Layout.compute: max_sessions < 1";
  let naming_base = superblock_len in
  let sessions_base = naming_base + naming_len in
  let meta_base = sessions_base + (max_sessions * session_slot_len) in
  let after_meta = meta_base + meta_len in
  (* Upper bound on slabs ignoring the bitmap itself, then refine. *)
  let logs_len = max_sessions * (memlog_cap + oplog_cap) in
  let est_slabs = max 1 ((capacity - after_meta - logs_len) / slab_size) in
  let bitmap_base = after_meta in
  let bitmap_len = align_up ((est_slabs + 7) / 8) 8 in
  let memlog_base = bitmap_base + bitmap_len in
  let oplog_base = memlog_base + (max_sessions * memlog_cap) in
  let data_base = align_up (oplog_base + (max_sessions * oplog_cap)) slab_size in
  if data_base + slab_size > capacity then
    invalid_arg "Layout.compute: capacity too small for fixed areas";
  let n_slabs = (capacity - data_base) / slab_size in
  let n_slabs = min n_slabs (bitmap_len * 8) in
  {
    capacity;
    max_sessions;
    naming_base;
    naming_len;
    sessions_base;
    meta_base;
    meta_len;
    bitmap_base;
    bitmap_len;
    memlog_base;
    memlog_cap;
    oplog_base;
    oplog_cap;
    slab_size;
    data_base;
    n_slabs;
  }

let store dev t =
  let open Asym_util in
  let e = Codec.Enc.create ~capacity:superblock_len () in
  Codec.Enc.u64 e magic;
  List.iter (Codec.Enc.u64i e)
    [
      t.capacity;
      t.max_sessions;
      t.naming_base;
      t.naming_len;
      t.sessions_base;
      t.meta_base;
      t.meta_len;
      t.bitmap_base;
      t.bitmap_len;
      t.memlog_base;
      t.memlog_cap;
      t.oplog_base;
      t.oplog_cap;
      t.slab_size;
      t.data_base;
      t.n_slabs;
    ];
  Asym_nvm.Device.write dev ~addr:0 (Codec.Enc.to_bytes e)

let load dev =
  let open Asym_util in
  let b = Asym_nvm.Device.read dev ~addr:0 ~len:superblock_len in
  let d = Codec.Dec.of_bytes b in
  if Codec.Dec.u64 d <> magic then failwith "Layout.load: bad superblock magic";
  let f () = Codec.Dec.u64i d in
  let capacity = f () in
  let max_sessions = f () in
  let naming_base = f () in
  let naming_len = f () in
  let sessions_base = f () in
  let meta_base = f () in
  let meta_len = f () in
  let bitmap_base = f () in
  let bitmap_len = f () in
  let memlog_base = f () in
  let memlog_cap = f () in
  let oplog_base = f () in
  let oplog_cap = f () in
  let slab_size = f () in
  let data_base = f () in
  let n_slabs = f () in
  {
    capacity;
    max_sessions;
    naming_base;
    naming_len;
    sessions_base;
    meta_base;
    meta_len;
    bitmap_base;
    bitmap_len;
    memlog_base;
    memlog_cap;
    oplog_base;
    oplog_cap;
    slab_size;
    data_base;
    n_slabs;
  }

let memlog_region t ~session =
  assert (session >= 0 && session < t.max_sessions);
  (t.memlog_base + (session * t.memlog_cap), t.memlog_cap)

let oplog_region t ~session =
  assert (session >= 0 && session < t.max_sessions);
  (t.oplog_base + (session * t.oplog_cap), t.oplog_cap)

let session_slot t ~session =
  assert (session >= 0 && session < t.max_sessions);
  t.sessions_base + (session * session_slot_len)

let slab_addr t i =
  assert (i >= 0 && i < t.n_slabs);
  t.data_base + (i * t.slab_size)

let slab_index t addr =
  assert (addr >= t.data_base && addr < t.data_base + (t.n_slabs * t.slab_size));
  (addr - t.data_base) / t.slab_size
