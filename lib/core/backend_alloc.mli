(** Back-end slab allocator (§5.2, lower tier).

    Hands out fixed-size slabs (and contiguous runs of slabs for large
    requests) from the data area. Allocation state is a persistent bitmap
    — one bit per slab — mirrored in DRAM for speed; after a crash the
    DRAM free list is rebuilt from the bitmap, which is the paper's
    "reconstruct the allocation status only in the slab level". *)

type t

val create : Asym_nvm.Device.t -> Layout.t -> t
(** Fresh allocator: zeroes the bitmap. *)

val load : Asym_nvm.Device.t -> Layout.t -> t
(** Rebuild the free list from the persistent bitmap. *)

val alloc : t -> slabs:int -> Types.addr option
(** Allocate [slabs] contiguous slabs; [None] when no run fits. The
    bitmap update is persisted before returning. *)

val free : t -> addr:Types.addr -> slabs:int -> unit
(** Release a previously allocated run. Raises [Invalid_argument] on a
    double free or an unaligned address. *)

val used_slabs : t -> int
val total_slabs : t -> int
