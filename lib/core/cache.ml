type policy = Lru | Rr | Hybrid

let policy_name = function Lru -> "LRU" | Rr -> "RR" | Hybrid -> "Hybrid"

module Index = Asym_util.Slot_index

(* A structure of arrays over [cap] slots. A held page owns one slot:
   [ids], [lens], [last_use] and its [page] bytes at [s * page] in
   [arena] describe it, [prev]/[next] link it into
   the circular recency list around the sentinel slot [cap], and [pos] is
   its index in [dense], whose first [count] entries are the held slots
   the samplers draw from. Slots [0, count) are exactly the held ones: an
   eviction frees a slot only for the insert that caused it, so the arena
   only ever grows to the pages held, at most [cap]. [index] maps
   a page id to its slot and is never iterated, so its layout cannot leak
   into any result. Once the arena has grown, no operation allocates. *)
type t = {
  policy : policy;
  page : int;
  cap : int;  (* capacity in pages; also the sentinel slot *)
  choose_set : int;
  rng : Asym_util.Rng.t;
  index : Index.t;
  ids : int array;
  mutable arena : bytes;
  lens : int array;  (* bytes held; a device's last page may be short *)
  last_use : int array;
  prev : int array;  (* towards MRU; [cap + 1] entries, the sentinel last *)
  next : int array;  (* towards LRU *)
  dense : int array;
  pos : int array;  (* [dense.(pos.(s)) = s] for a held slot [s] *)
  mutable count : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable relinks : int;  (* recency-list moves that were not already-MRU no-ops *)
}

let create ?(choose_set = 32) ~policy ~page_size ~capacity_bytes rng =
  let cap = max 1 (capacity_bytes / page_size) in
  let links = Array.make (cap + 1) cap in
  {
    policy;
    page = page_size;
    cap;
    choose_set;
    rng;
    index = Index.create cap;
    ids = Array.make cap 0;
    arena = Bytes.empty;
    lens = Array.make cap 0;
    last_use = Array.make cap 0;
    prev = links;
    next = Array.copy links;
    dense = Array.make cap 0;
    pos = Array.make cap 0;
    count = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    relinks = 0;
  }

let page_size t = t.page
let arena t = t.arena
let page_length t s = t.lens.(s)
let capacity_pages t = t.cap
let length t = t.count
let hits t = t.hits
let misses t = t.misses
let relinks t = t.relinks

let lookup t id = Index.find t.index ~keys:t.ids id
let peek = lookup

(* -- recency list -------------------------------------------------------- *)

let detach t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t s =
  let first = t.next.(t.cap) in
  t.prev.(s) <- t.cap;
  t.next.(s) <- first;
  t.prev.(first) <- s;
  t.next.(t.cap) <- s

let touch t s =
  t.tick <- t.tick + 1;
  t.last_use.(s) <- t.tick;
  if t.next.(t.cap) <> s then begin
    t.relinks <- t.relinks + 1;
    detach t s;
    push_front t s
  end

(* -- eviction ------------------------------------------------------------ *)

let sample t = t.dense.(Asym_util.Rng.int t.rng t.count)

let victim t =
  match t.policy with
  | Lru -> t.prev.(t.cap)
  | Rr -> sample t
  | Hybrid ->
      (* Sample [choose_set] pages, evict the least recently used one; the
         first of equally old samples wins. *)
      let best = ref (sample t) in
      for _ = 2 to t.choose_set do
        let s = sample t in
        if t.last_use.(s) < t.last_use.(!best) then best := s
      done;
      !best

(* Drop slot [s]'s page: the last dense entry moves into its place. *)
let evict t s =
  Index.remove t.index ~keys:t.ids t.ids.(s);
  detach t s;
  let last = t.count - 1 in
  let moved = t.dense.(last) in
  t.dense.(t.pos.(s)) <- moved;
  t.pos.(moved) <- t.pos.(s);
  t.count <- last

(* -- public operations ---------------------------------------------------- *)

let find t id =
  let s = lookup t id in
  if s >= 0 then begin
    touch t s;
    t.hits <- t.hits + 1
  end
  else t.misses <- t.misses + 1;
  s

(* Room for slot [s]: double the arena, up to the capacity. *)
let grow t s =
  let need = (s + 1) * t.page in
  if need > Bytes.length t.arena then begin
    let a = Bytes.create (Int.min (t.cap * t.page) (Int.max need (2 * Bytes.length t.arena))) in
    Bytes.blit t.arena 0 a 0 (Bytes.length t.arena);
    t.arena <- a
  end

let store t s src ~len =
  Bytes.blit src 0 t.arena (s * t.page) len;
  t.lens.(s) <- len

let insert t id src ~len =
  if len < 0 || len > t.page || len > Bytes.length src then invalid_arg "Cache.insert";
  let s = lookup t id in
  if s >= 0 then begin
    store t s src ~len;
    touch t s;
    s
  end
  else begin
    let s =
      if t.count >= t.cap then begin
        let v = victim t in
        evict t v;
        v
      end
      else t.count
    in
    grow t s;
    store t s src ~len;
    t.ids.(s) <- id;
    Index.add t.index id s;
    t.dense.(t.count) <- s;
    t.pos.(s) <- t.count;
    t.count <- t.count + 1;
    push_front t s;
    t.tick <- t.tick + 1;
    t.last_use.(s) <- t.tick;
    s
  end

let patch t ~addr value =
  let len = Bytes.length value in
  let first = addr / t.page in
  let last = (addr + len - 1) / t.page in
  for id = first to last do
    let s = lookup t id in
    if s >= 0 then begin
      let page_base = id * t.page in
      let lo = Int.max addr page_base in
      let hi = Int.min (addr + len) (page_base + t.lens.(s)) in
      if hi > lo then Bytes.blit value (lo - addr) t.arena ((s * t.page) + lo - page_base) (hi - lo)
    end
  done

let clear t =
  Index.clear t.index ~keys:t.ids t.count;
  t.count <- 0;
  t.next.(t.cap) <- t.cap;
  t.prev.(t.cap) <- t.cap
