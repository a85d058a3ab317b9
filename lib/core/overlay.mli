(** Front-end write overlay.

    Between a memory-log append and the next [rnvm_tx_write], the written
    bytes exist only in the front-end's DRAM. The overlay indexes those
    pending bytes (per 64-byte block) so that every [rnvm_read] observes
    the front-end's own writes, and so that reads fully covered by pending
    writes skip the network entirely — which is what makes the §8.1
    push/pop annulment optimization fall out for free. *)

type t

val create : unit -> t

val add : t -> addr:Types.addr -> bytes -> unit
(** Record pending bytes at [addr]. *)

val patch : t -> addr:Types.addr -> bytes -> unit
(** Overwrite the buffer (holding bytes fetched from [addr]) with any
    pending bytes in its range. *)

val try_read : t -> addr:Types.addr -> len:int -> bytes option
(** [Some bytes] iff the whole range is covered by pending writes. *)

val clear : t -> unit
