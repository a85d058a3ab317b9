open Asym_sim

type addr = int

(* Media is an array of 4 KiB pages. A page nobody has written refers to
   the one shared [zero_page]; a page is copied or allocated only when a
   device must change it ([writable]), so a device costs memory for the
   bytes it holds, not for its capacity, and a device copy shares every
   page until one side writes it. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Never written: every store goes through [writable] first. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  name : string;
  capacity : int;
  pages : bytes array;
  owned : bytes;  (* '\001' iff [pages.(i)] is this device's alone and may change in place *)
  lat : Latency.t;
  word : bytes;  (* scratch for an 8-byte word that straddles two pages *)
  mutable reads : int;
  mutable writes : int;
  mutable bytes_written : int;
}

let create ?(name = "nvm") ~capacity lat =
  assert (capacity > 0);
  let n = (capacity + page_size - 1) / page_size in
  {
    name;
    capacity;
    pages = Array.make n zero_page;
    owned = Bytes.make n '\000';
    lat;
    word = Bytes.create 8;
    reads = 0;
    writes = 0;
    bytes_written = 0;
  }

let name t = t.name
let capacity t = t.capacity

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Nvm.Device %s: access out of bounds (addr=%d len=%d cap=%d)" t.name addr
         len t.capacity)

let obs_media t ~op ~len =
  if Asym_obs.enabled () then begin
    let labels = [ ("op", op); ("dev", t.name) ] in
    Asym_obs.Registry.inc ~labels "nvm.media";
    Asym_obs.Registry.add ~labels "nvm.media_bytes" len
  end

(* -- page access (no counting) ------------------------------------------ *)

let is_zero b ~pos ~len =
  let stop = pos + len in
  let i = ref pos in
  while !i + 8 <= stop && Int64.equal (Bytes.get_int64_le b !i) 0L do
    i := !i + 8
  done;
  while !i < stop && Bytes.get b !i = '\000' do
    incr i
  done;
  !i >= stop

(* Page [i], private to this device from now on. *)
let writable t i =
  if Bytes.get t.owned i = '\001' then t.pages.(i)
  else begin
    let p = t.pages.(i) in
    let p = if p == zero_page then Bytes.make page_size '\000' else Bytes.copy p in
    t.pages.(i) <- p;
    Bytes.set t.owned i '\001';
    p
  end

let blit_out t ~addr dst ~pos ~len =
  let addr = ref addr and pos = ref pos and len = ref len in
  while !len > 0 do
    let off = !addr land page_mask in
    let n = Int.min !len (page_size - off) in
    Bytes.blit t.pages.(!addr lsr page_bits) off dst !pos n;
    addr := !addr + n;
    pos := !pos + n;
    len := !len - n
  done

(* Zero bytes landing on the zero page change nothing, so a page becomes
   real only on its first non-zero byte. *)
let blit_in t ~addr src ~pos ~len =
  let addr = ref addr and pos = ref pos and len = ref len in
  while !len > 0 do
    let i = !addr lsr page_bits and off = !addr land page_mask in
    let n = Int.min !len (page_size - off) in
    if not (t.pages.(i) == zero_page && is_zero src ~pos:!pos ~len:n) then
      Bytes.blit src !pos (writable t i) off n;
    addr := !addr + n;
    pos := !pos + n;
    len := !len - n
  done

let fill_zero t ~addr ~len =
  let addr = ref addr and len = ref len in
  while !len > 0 do
    let i = !addr lsr page_bits and off = !addr land page_mask in
    let n = Int.min !len (page_size - off) in
    if t.pages.(i) == zero_page then ()
    else if n = page_size && Bytes.get t.owned i = '\000' then t.pages.(i) <- zero_page
    else Bytes.fill (writable t i) off n '\000';
    addr := !addr + n;
    len := !len - n
  done

let get_word t addr =
  let off = addr land page_mask in
  if off <= page_size - 8 then Bytes.get_int64_le t.pages.(addr lsr page_bits) off
  else begin
    blit_out t ~addr t.word ~pos:0 ~len:8;
    Bytes.get_int64_le t.word 0
  end

(* The first [len] bytes of [v]'s little-endian image: fewer than 8 only
   when a tear cuts a word write. *)
let set_word t ~len addr v =
  let off = addr land page_mask in
  if len = 8 && off <= page_size - 8 then begin
    let i = addr lsr page_bits in
    if not (Int64.equal v 0L && t.pages.(i) == zero_page) then
      Bytes.set_int64_le (writable t i) off v
  end
  else begin
    Bytes.set_int64_le t.word 0 v;
    blit_in t ~addr t.word ~pos:0 ~len
  end

(* -- counted operations ------------------------------------------------- *)

(* The bytes of a plain mutation that land: all, unless the crash
   injector tears it. The device has no clock; the tracer anchors the
   torn-write instant at the latest simulated timestamp it has seen. *)
let landing t ~len =
  let n = Crashpoint.landing ~len in
  if n < len then Asym_obs.Span.instant ~cat:"fault" ~track:t.name "nvm.torn_write";
  n

let count_write t ~len =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + len;
  obs_media t ~op:"write" ~len

let count_read t ~len =
  t.reads <- t.reads + 1;
  obs_media t ~op:"read" ~len

let read t ~addr ~len =
  check t addr len;
  count_read t ~len;
  let b = Bytes.create len in
  blit_out t ~addr b ~pos:0 ~len;
  b

let read_into t ~addr buf ~pos ~len =
  check t addr len;
  if pos < 0 || pos + len > Bytes.length buf then invalid_arg "Nvm.Device.read_into: buffer";
  count_read t ~len;
  blit_out t ~addr buf ~pos ~len

let read_u64 t ~addr =
  check t addr 8;
  count_read t ~len:8;
  get_word t addr

let write t ~addr ?(pos = 0) ?len b =
  let len = match len with Some n -> n | None -> Bytes.length b - pos in
  if pos < 0 || pos + len > Bytes.length b then invalid_arg "Nvm.Device.write: len";
  check t addr len;
  blit_in t ~addr b ~pos ~len:(landing t ~len);
  count_write t ~len;
  Crashpoint.hit ~site:"nvm.write"

let write_u64 t ~addr v =
  check t addr 8;
  set_word t ~len:(landing t ~len:8) addr v;
  count_write t ~len:8;
  Crashpoint.hit ~site:"nvm.write"

let zero t ~addr ~len =
  check t addr len;
  fill_zero t ~addr ~len:(landing t ~len);
  count_write t ~len;
  Crashpoint.hit ~site:"nvm.write"

let compare_and_swap t ~addr ~expected ~desired =
  check t addr 8;
  let old = get_word t addr in
  if Int64.equal old expected then begin
    set_word t ~len:8 addr desired;
    count_write t ~len:8;
    Crashpoint.hit ~site:"nvm.cas"
  end;
  old

let fetch_add t ~addr delta =
  check t addr 8;
  let old = get_word t addr in
  set_word t ~len:8 addr (Int64.add old delta);
  count_write t ~len:8;
  Crashpoint.hit ~site:"nvm.fetch_add";
  old

let read_cost t ~len = Latency.nvm_read_cost t.lat len
let write_cost t ~len = Latency.nvm_write_cost t.lat len

let reads_performed t = t.reads
let writes_performed t = t.writes
let bytes_written t = t.bytes_written

let resident_pages t =
  Array.fold_left (fun n p -> if p == zero_page then n else n + 1) 0 t.pages

let copy_from t ~src =
  if src.capacity <> t.capacity then invalid_arg "Nvm.Device.copy_from: capacity mismatch";
  let n = Array.length t.pages in
  Array.blit src.pages 0 t.pages 0 n;
  Bytes.fill src.owned 0 n '\000';
  Bytes.fill t.owned 0 n '\000'

let snapshot t =
  let b = Bytes.create t.capacity in
  blit_out t ~addr:0 b ~pos:0 ~len:t.capacity;
  b
