let block_shift = 6
let block_size = 1 lsl block_shift

module Index = Asym_util.Slot_index

(* Pending bytes live in 64-byte blocks of one growable arena: block slot
   [s] holds its bytes at [data.[s * 64, s * 64 + 64)], a 0/1 byte per
   byte in [valid] at the same offsets, and the count of set bytes in
   [n_valid.(s)]; a full block ([n_valid = block_size]) is copied with one
   blit and never scanned. [index] maps a block id to its slot; slots
   [0, n) are in use. [clear] keeps every array at its size, so a warm
   overlay adds, patches and clears without allocating. *)
type t = {
  index : Index.t;
  mutable ids : int array;  (* block id of each slot *)
  mutable n_valid : int array;
  mutable data : bytes;
  mutable valid : bytes;
  mutable n : int;
}

let create () =
  let slots = 64 in
  {
    index = Index.create slots;
    ids = Array.make slots 0;
    n_valid = Array.make slots 0;
    data = Bytes.create (slots * block_size);
    valid = Bytes.create (slots * block_size);
    n = 0;
  }

let lookup t id = Index.find t.index ~keys:t.ids id

(* Double the arena with the index. *)
let grow t =
  let extend a = Array.append a (Array.make (Array.length a) 0) in
  t.ids <- extend t.ids;
  t.n_valid <- extend t.n_valid;
  t.data <- Bytes.extend t.data 0 (Bytes.length t.data);
  t.valid <- Bytes.extend t.valid 0 (Bytes.length t.valid);
  Index.grow t.index ~keys:t.ids t.n

let slot_for t id =
  let s = lookup t id in
  if s >= 0 then s
  else begin
    if t.n = Index.capacity t.index then grow t;
    let s = t.n in
    t.n <- s + 1;
    t.ids.(s) <- id;
    t.n_valid.(s) <- 0;
    Bytes.fill t.valid (s lsl block_shift) block_size '\000';
    Index.add t.index id s;
    s
  end

let add t ~addr value =
  let len = Bytes.length value in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land (block_size - 1) in
    let n = Int.min (block_size - off) (len - !i) in
    let s = slot_for t (a lsr block_shift) in
    let base = s lsl block_shift in
    Bytes.blit value !i t.data (base + off) n;
    if n = block_size then begin
      Bytes.fill t.valid base block_size '\001';
      t.n_valid.(s) <- block_size
    end
    else if t.n_valid.(s) < block_size then
      for k = base + off to base + off + n - 1 do
        if Bytes.get t.valid k = '\000' then begin
          Bytes.set t.valid k '\001';
          t.n_valid.(s) <- t.n_valid.(s) + 1
        end
      done;
    i := !i + n
  done

let patch t ~addr buf =
  if t.n > 0 then begin
    let len = Bytes.length buf in
    let first = addr lsr block_shift in
    let last = (addr + len - 1) lsr block_shift in
    for id = first to last do
      let s = lookup t id in
      if s >= 0 then begin
        let block_base = id lsl block_shift in
        let lo = Int.max addr block_base in
        let hi = Int.min (addr + len) (block_base + block_size) in
        let base = (s lsl block_shift) - block_base in
        if t.n_valid.(s) = block_size then Bytes.blit t.data (base + lo) buf (lo - addr) (hi - lo)
        else
          for a = lo to hi - 1 do
            if Bytes.get t.valid (base + a) = '\001' then
              Bytes.set buf (a - addr) (Bytes.get t.data (base + a))
          done
      end
    done
  end

(* Every byte of arena range [lo, hi) is pending. *)
let covers t s lo hi =
  t.n_valid.(s) = block_size
  ||
  let k = ref lo in
  while !k < hi && Bytes.get t.valid !k = '\001' do
    incr k
  done;
  !k >= hi

let try_read t ~addr ~len =
  if t.n = 0 then None
  else begin
    (* One lookup per block; the result is allocated only once the first
       block is known to be covered. *)
    let stop = addr + len in
    let out = ref Bytes.empty in
    let a = ref addr in
    while !a < stop do
      let id = !a lsr block_shift in
      let block_base = id lsl block_shift in
      let hi = Int.min stop (block_base + block_size) in
      let s = lookup t id in
      let base = (s lsl block_shift) - block_base in
      if s >= 0 && covers t s (base + !a) (base + hi) then begin
        if !a = addr then out := Bytes.create len;
        Bytes.blit t.data (base + !a) !out (!a - addr) (hi - !a);
        a := hi
      end
      else a := stop + 1
    done;
    if !a = stop then Some !out else None
  end

let clear t =
  Index.clear t.index ~keys:t.ids t.n;
  t.n <- 0
