(** Front-end DRAM page cache (§4.4).

    Maps back-end NVM pages to local DRAM copies. Three replacement
    policies are provided, each keeping only what its eviction reads:
    - [Lru]: exact least-recently-used. It alone keeps a doubly linked
      recency list, relinked by every hit on a page that is not MRU;
    - [Rr]: random replacement. It keeps no recency at all;
    - [Hybrid]: the paper's policy — sample a random {e choose set} and
      evict the least recently used page of the sample. It approaches LRU's
      miss ratio at RR's bookkeeping cost: a hit stores one last-use tick,
      kept in sample order (beside the page's entry in the array the
      samples are drawn from), so each sample is one load, and an eviction
      draws its samples in one loop with no division ({!Asym_util.Rng.argmin}).
      The victims are exactly those of [choose_set] [Rng.int] draws
      compared by tick, the first of equally old samples winning.

    Dirty data never needs writing back: writes travel through the memory
    log, the cache only ever holds a coherent copy (the front-end patches
    cached pages as it appends memory logs).

    The cache is a set of flat arrays over page slots with an
    open-addressed index from page id to slot. The pages themselves live
    in one arena: slot [s] holds its page at [s * page_size], and the
    arena grows with the pages held, never past the capacity. Callers
    copy bytes in ({!insert}, {!patch}) and out (through {!arena}); no
    page is a heap object of its own. Once the arena has grown, no
    operation allocates: {!find}, {!insert}, {!patch} and {!clear} only
    read and write those arrays (and draw from the generator). *)

type policy = Lru | Rr | Hybrid

val policy_name : policy -> string

type t

val create :
  ?choose_set:int -> policy:policy -> page_size:int -> capacity_bytes:int -> Asym_util.Rng.t -> t

val page_size : t -> int
val capacity_pages : t -> int
val length : t -> int

val find : t -> int -> int
(** [find t page_id] returns the page's slot and refreshes its recency:
    one index probe, then under [Lru] one relink unless the page is
    already MRU, under [Hybrid] one tick store, under [Rr] nothing. A
    page that is not cached gives [-1] and counts a miss. Allocates
    nothing. *)

val arena : t -> bytes
(** The page store: a held slot [s] has its {!page_length} bytes from
    [s * page_size]. An {!insert} may replace the arena, so take it after
    the last insert. *)

val page_length : t -> int -> int
(** Bytes a held slot holds: the page size, or less for the short last
    page of a device. *)

val peek : t -> int -> int
(** The page's slot, or [-1], moving neither recency nor counters. *)

val insert : t -> int -> bytes -> len:int -> int
(** [insert t page_id src ~len] copies the first [len] bytes of [src]
    ([len] at most a page) into a slot and returns it, evicting per
    policy if full: [Lru] takes the list tail, [Rr] one random draw,
    [Hybrid] [choose_set] draws compared by their last-use ticks. [src]
    stays the caller's. Allocates only when the arena grows. *)

val patch : t -> addr:Types.addr -> bytes -> unit
(** Overwrite the cached bytes covering [addr], where present: one index
    probe per page the range touches. Moves neither recency nor counters. *)

val clear : t -> unit
(** Drop every page, keeping the arena. [clear] is O(pages held), not
    O(capacity), and allocates nothing. *)

val hits : t -> int
val misses : t -> int
(** {!find} successes/failures since creation. *)

val relinks : t -> int
(** Recency-list moves performed by touches, which only [Lru] makes:
    under [Hybrid] and [Rr] it stays 0. A hit on the page that is already
    MRU must not relink (the fast path the recency list exists for), so
    repeated hits on one page leave this flat. *)
