type t = {
  dev : Asym_nvm.Device.t;
  layout : Layout.t;
  bitmap : Bytes.t;  (* DRAM mirror of the persistent bitmap *)
  mutable used : int;
  mutable rover : int;  (* next-fit starting point *)
  mutable free_singles : int list;  (* fast path for 1-slab allocations *)
}

let bit_get b i = Bytes.get_uint8 b (i / 8) land (1 lsl (i mod 8)) <> 0

let bit_set b i v =
  let byte = Bytes.get_uint8 b (i / 8) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set_uint8 b (i / 8) (if v then byte lor mask else byte land lnot mask)

let persist_bit t i =
  (* Persist the byte containing bit [i]. *)
  let off = i / 8 in
  Asym_nvm.Device.write t.dev ~addr:(t.layout.Layout.bitmap_base + off)
    (Bytes.sub t.bitmap off 1)

let create dev layout =
  let len = layout.Layout.bitmap_len in
  let bitmap = Bytes.make len '\000' in
  Asym_nvm.Device.write dev ~addr:layout.Layout.bitmap_base bitmap;
  { dev; layout; bitmap; used = 0; rover = 0; free_singles = [] }

let load dev layout =
  let bitmap =
    Asym_nvm.Device.read dev ~addr:layout.Layout.bitmap_base ~len:layout.Layout.bitmap_len
  in
  let used = ref 0 in
  for i = 0 to layout.Layout.n_slabs - 1 do
    if bit_get bitmap i then incr used
  done;
  { dev; layout; bitmap; used = !used; rover = 0; free_singles = [] }

let total_slabs t = t.layout.Layout.n_slabs
let used_slabs t = t.used

let take_single t =
  let rec pop () =
    match t.free_singles with
    | i :: rest ->
        t.free_singles <- rest;
        if bit_get t.bitmap i then pop () else Some i
    | [] -> None
  in
  match pop () with
  | Some i -> Some i
  | None ->
      let n = t.layout.Layout.n_slabs in
      let rec scan tried i =
        if tried >= n then None
        else if not (bit_get t.bitmap i) then Some i
        else scan (tried + 1) ((i + 1) mod n)
      in
      let r = scan 0 t.rover in
      (match r with Some i -> t.rover <- (i + 1) mod n | None -> ());
      r

let find_run t slabs =
  let n = t.layout.Layout.n_slabs in
  let rec scan start =
    if start + slabs > n then None
    else
      let rec check k = if k >= slabs then true else (not (bit_get t.bitmap (start + k))) && check (k + 1) in
      if check 0 then Some start
      else
        (* Skip past the first allocated slab in the window. *)
        let rec first_used k = if bit_get t.bitmap (start + k) then k else first_used (k + 1) in
        scan (start + first_used 0 + 1)
  in
  scan 0

let alloc t ~slabs =
  assert (slabs >= 1);
  let start = if slabs = 1 then take_single t else find_run t slabs in
  match start with
  | None -> None
  | Some s ->
      for k = s to s + slabs - 1 do
        bit_set t.bitmap k true;
        persist_bit t k
      done;
      t.used <- t.used + slabs;
      Some (Layout.slab_addr t.layout s)

let free t ~addr ~slabs =
  let l = t.layout in
  if (addr - l.Layout.data_base) mod l.Layout.slab_size <> 0 then
    invalid_arg "Backend_alloc.free: unaligned address";
  let s = Layout.slab_index l addr in
  for k = s to s + slabs - 1 do
    if not (bit_get t.bitmap k) then invalid_arg "Backend_alloc.free: double free";
    bit_set t.bitmap k false;
    persist_bit t k;
    t.free_singles <- k :: t.free_singles
  done;
  t.used <- t.used - slabs
