type policy = Lru | Rr | Hybrid

let policy_name = function Lru -> "LRU" | Rr -> "RR" | Hybrid -> "Hybrid"

module Index = Asym_util.Slot_index

(* A structure of arrays over [cap] slots. A held page owns one slot:
   [ids], [data] and [last_use] describe it, [prev]/[next] link it into
   the circular recency list around the sentinel slot [cap], and [pos] is
   its index in [dense], whose first [count] entries are the held slots
   the samplers draw from. Slots [0, count) are exactly the held ones: an
   eviction frees a slot only for the insert that caused it. [index] maps
   a page id to its slot and is never iterated, so its layout cannot leak
   into any result. No operation allocates. *)
type t = {
  policy : policy;
  page : int;
  cap : int;  (* capacity in pages; also the sentinel slot *)
  choose_set : int;
  rng : Asym_util.Rng.t;
  index : Index.t;
  ids : int array;
  data : bytes array;
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
    data = Array.make cap Bytes.empty;
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
let capacity_pages t = t.cap
let length t = t.count
let hits t = t.hits
let misses t = t.misses
let relinks t = t.relinks

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let lookup t id = Index.find t.index ~keys:t.ids id

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
    t.hits <- t.hits + 1;
    t.data.(s)
  end
  else begin
    t.misses <- t.misses + 1;
    raise Not_found
  end

let insert t id data =
  let s = lookup t id in
  if s >= 0 then begin
    t.data.(s) <- data;
    touch t s
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
    t.ids.(s) <- id;
    t.data.(s) <- data;
    Index.add t.index id s;
    t.dense.(t.count) <- s;
    t.pos.(s) <- t.count;
    t.count <- t.count + 1;
    push_front t s;
    t.tick <- t.tick + 1;
    t.last_use.(s) <- t.tick
  end

let patch t ~addr value =
  let len = Bytes.length value in
  let first = addr / t.page in
  let last = (addr + len - 1) / t.page in
  for id = first to last do
    let s = lookup t id in
    if s >= 0 then begin
      let page = t.data.(s) in
      let page_base = id * t.page in
      let lo = max addr page_base in
      let hi = min (addr + len) (page_base + Bytes.length page) in
      if hi > lo then Bytes.blit value (lo - addr) page (lo - page_base) (hi - lo)
    end
  done

let clear t =
  Index.clear t.index ~keys:t.ids t.count;
  Array.fill t.data 0 t.count Bytes.empty;
  t.count <- 0;
  t.next.(t.cap) <- t.cap;
  t.prev.(t.cap) <- t.cap
