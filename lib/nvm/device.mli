(** Simulated byte-addressable non-volatile memory device.

    Models the durability properties AsymNVM relies on:
    - any completed write is durable (the ack the RDMA NIC returns after
      DDIO/ADR drains to the persistence domain);
    - a write in flight when the host crashes may be {e torn}: only a
      prefix of it reaches the media. {!tear_last_write} reverts the
      suffix of the most recent write, which is exactly the failure the
      per-transaction checksum (paper §4.2) exists to detect.

    The device never loses completed writes across {!crash_restart}; only
    the torn suffix (if injected) differs. Media latencies are exposed as
    cost functions; charging them to the right clock is the caller's
    (NIC's / backend CPU's) job.

    The media is sparse: {!page_size}-byte pages that all start as one
    shared, never-written zero page. A page is allocated on its first
    non-zero byte, and {!copy_from} shares pages between two devices until
    one of them writes (copy-on-write). None of this shows in the
    counters, the crash sites or the bytes read back. *)

type t

type addr = int
(** Byte offset into the device. The paper uses 64-bit NVM addresses; a
    63-bit OCaml [int] is plenty for simulated capacities. *)

val create : ?name:string -> capacity:int -> Asym_sim.Latency.t -> t
val name : t -> string
val capacity : t -> int

val page_size : int

val read : t -> addr:addr -> len:int -> bytes

val read_into : t -> addr:addr -> bytes -> pos:int -> len:int -> unit
(** Like {!read}, into the buffer from [pos] on; counts as one read of [len] bytes. *)

val read_u64 : t -> addr:addr -> int64
val write : t -> addr:addr -> ?pos:int -> ?len:int -> bytes -> unit
(** Write the [len] bytes of the buffer from [pos] (default: from 0 to
    its end). *)

val write_u64 : t -> addr:addr -> int64 -> unit

val zero : t -> addr:addr -> len:int -> unit
(** Exactly a {!write} of [len] zero bytes — counters, crash site and the
    pre-image {!tear_last_write} restores — without building them. Whole
    pages shared with another device are dropped back to the zero page. *)

val compare_and_swap : t -> addr:addr -> expected:int64 -> desired:int64 -> int64
(** Atomic 8-byte CAS; returns the previous value. *)

val fetch_add : t -> addr:addr -> int64 -> int64
(** Atomic 8-byte add; returns the previous value. *)

val read_cost : t -> len:int -> Asym_sim.Simtime.t
val write_cost : t -> len:int -> Asym_sim.Simtime.t

val tear_last_write : t -> keep:int -> unit
(** Simulate a crash tearing the most recent write: only its first [keep]
    bytes persist; the rest revert to the previous contents. No-op if
    there was no write yet. *)

val crash_restart : t -> unit
(** Power-cycle the device. Durable contents are preserved; the
    tear-injection bookkeeping is reset. *)

val last_write_len : t -> int option
(** Length of the most recent write (the one {!tear_last_write} would
    tear), or [None] after {!crash_restart} / before any write. Used by
    the crash-point explorer to pick a tear offset. *)

val reads_performed : t -> int
val writes_performed : t -> int
val bytes_written : t -> int

val resident_pages : t -> int
(** Pages that hold memory of their own or shared with a {!copy_from}
    peer, i.e. not the zero page. *)

val copy_from : t -> src:t -> unit
(** Make [t]'s contents equal to [src]'s (same capacity) by sharing its
    pages; either side copies a page the first time it writes it. Touches
    no counter and no tear bookkeeping. *)

val snapshot : t -> bytes
(** Copy of the full media contents (a capacity-sized buffer, for tests). *)
