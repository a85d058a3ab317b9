(* Reference model of the front-end page cache: the node-and-Hashtbl
   implementation [Cache] replaced, kept verbatim but for [peek], which
   reads a held page without moving recency or counters, and for
   [relinks], which counts moves under [Lru] only (the one policy whose
   cache keeps a recency list). Its victims are the oracle for [Cache]'s:
   [Rng.int] per draw, two loads per sample and a branchy minimum. The cache
   reference property in test_cache drives both with the same traces and
   the same random streams and requires identical observations, page
   bytes included. *)

type policy = Lru | Rr | Hybrid

let policy_name = function Lru -> "LRU" | Rr -> "RR" | Hybrid -> "Hybrid"

(* A hit touches one node and allocates nothing: the recency list is
   intrusive and circular around a sentinel (so no link is ever an
   [option]), and the page table is specialised to int keys. The table is
   never iterated, so its bucket order cannot leak into any result. *)
type node = {
  id : int;
  mutable data : bytes;
  mutable last_use : int;
  mutable slot : int;  (* index in the dense array *)
  mutable prev : node;  (* towards MRU; the sentinel before the MRU page *)
  mutable next : node;  (* towards LRU; the sentinel after the LRU page *)
}

module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (id : int) = id land max_int
end)

type t = {
  policy : policy;
  page : int;
  cap : int;  (* capacity in pages *)
  choose_set : int;
  rng : Asym_util.Rng.t;
  table : node Pages.t;
  sentinel : node;  (* [sentinel.next] is the MRU page, [sentinel.prev] the LRU *)
  dense : node array;  (* slots [0, count) are live; the rest hold the sentinel *)
  mutable count : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable relinks : int;  (* [Lru] recency-list moves that were not already-MRU no-ops *)
}

let create ?(choose_set = 32) ~policy ~page_size ~capacity_bytes rng =
  let cap = max 1 (capacity_bytes / page_size) in
  let rec sentinel =
    { id = -1; data = Bytes.empty; last_use = 0; slot = -1; prev = sentinel; next = sentinel }
  in
  {
    policy;
    page = page_size;
    cap;
    choose_set;
    rng;
    table = Pages.create (2 * cap);
    sentinel;
    dense = Array.make cap sentinel;
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

(* -- recency list -------------------------------------------------------- *)

let detach n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let s = t.sentinel in
  n.prev <- s;
  n.next <- s.next;
  s.next.prev <- n;
  s.next <- n

let touch t n =
  t.tick <- t.tick + 1;
  n.last_use <- t.tick;
  if t.sentinel.next != n then begin
    if t.policy = Lru then t.relinks <- t.relinks + 1;
    detach n;
    push_front t n
  end

(* -- dense array (for random sampling) ----------------------------------- *)

let dense_add t n =
  n.slot <- t.count;
  t.dense.(t.count) <- n;
  t.count <- t.count + 1

let dense_remove t n =
  let last = t.count - 1 in
  let m = t.dense.(last) in
  if m != n then begin
    t.dense.(n.slot) <- m;
    m.slot <- n.slot
  end;
  t.dense.(last) <- t.sentinel;
  t.count <- last

(* -- eviction ------------------------------------------------------------ *)

let victim t =
  match t.policy with
  | Lru -> t.sentinel.prev
  | Rr -> t.dense.(Asym_util.Rng.int t.rng t.count)
  | Hybrid ->
      (* Sample [choose_set] pages, evict the least recently used one; the
         first of equally old samples wins. *)
      let best = ref t.dense.(Asym_util.Rng.int t.rng t.count) in
      for _ = 2 to t.choose_set do
        let n = t.dense.(Asym_util.Rng.int t.rng t.count) in
        if n.last_use < !best.last_use then best := n
      done;
      !best

let remove t n =
  Pages.remove t.table n.id;
  detach n;
  dense_remove t n

(* -- public operations ---------------------------------------------------- *)

let find t id =
  match Pages.find t.table id with
  | n ->
      touch t n;
      t.hits <- t.hits + 1;
      n.data
  | exception Not_found ->
      t.misses <- t.misses + 1;
      raise Not_found

let peek t id = Option.map (fun n -> n.data) (Pages.find_opt t.table id)

let insert t id data =
  match Pages.find t.table id with
  | n ->
      n.data <- data;
      touch t n
  | exception Not_found ->
      if t.count >= t.cap then remove t (victim t);
      let s = t.sentinel in
      let n = { id; data; last_use = 0; slot = 0; prev = s; next = s } in
      Pages.replace t.table id n;
      dense_add t n;
      push_front t n;
      t.tick <- t.tick + 1;
      n.last_use <- t.tick

let patch t ~addr value =
  let len = Bytes.length value in
  let first = addr / t.page in
  let last = (addr + len - 1) / t.page in
  for id = first to last do
    match Pages.find t.table id with
    | exception Not_found -> ()
    | n ->
        let page_base = id * t.page in
        let lo = max addr page_base in
        let hi = min (addr + len) (page_base + Bytes.length n.data) in
        if hi > lo then Bytes.blit value (lo - addr) n.data (lo - page_base) (hi - lo)
  done

let clear t =
  Pages.reset t.table;
  Array.fill t.dense 0 t.cap t.sentinel;
  t.count <- 0;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel
