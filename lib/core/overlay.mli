(** Front-end write overlay.

    Between a memory-log append and the next [rnvm_tx_write], the written
    bytes exist only in the front-end's DRAM. The overlay indexes those
    pending bytes (per 64-byte block) so that every [rnvm_read] observes
    the front-end's own writes, and so that reads fully covered by pending
    writes skip the network entirely — which is what makes the §8.1
    push/pop annulment optimization fall out for free.

    Blocks live in one growable arena found through an open-addressed
    index. Every operation costs one index probe per 64-byte block its
    range touches, plus a byte-by-byte scan of blocks that are only partly
    pending. Once the arena has grown to a batch's size, {!add},
    {!patch} and {!clear} allocate nothing. *)

type t

val create : unit -> t

val add : t -> addr:Types.addr -> bytes -> unit
(** Record pending bytes at [addr]; later bytes win. *)

val patch : t -> addr:Types.addr -> bytes -> unit
(** Overwrite the buffer (holding bytes fetched from [addr]) with any
    pending bytes in its range. *)

val try_read : t -> addr:Types.addr -> len:int -> bytes option
(** [Some bytes] iff the whole range is covered by pending writes. The
    returned buffer is the only allocation. *)

val clear : t -> unit
(** Forget every pending byte: O(blocks held), keeping the arena and the
    index at their size. *)
