(** Physical layout of a back-end NVM device.

    The device is carved into fixed areas at initialization time:

    {v
    0           superblock (magic + layout parameters)
    naming      global naming space (§5.1)
    sessions    per-session metadata slots: LPN, OPN, op-log tail
    meta heap   small persistent words: roots, locks, sequence numbers
    bitmap      slab allocation bitmap (§5.2)
    memlog      per-session memory-log rings (§4.2)
    oplog       per-session operation-log rings (§4.3)
    data        slab pool — the persistent data structures live here
    v}

    The superblock is what makes the device self-describing: after a
    back-end restart (or a mirror promotion) the layout is reconstructed
    from the media alone, which is the paper's "well-known locations"
    global-addressing requirement. *)

type t = {
  capacity : int;
  max_sessions : int;
  naming_base : int;
  naming_len : int;
  sessions_base : int;  (** [max_sessions] slots of {!session_slot_len} bytes *)
  meta_base : int;  (** meta heap; first 8 bytes are the bump cursor *)
  meta_len : int;
  bitmap_base : int;
  bitmap_len : int;
  memlog_base : int;
  memlog_cap : int;  (** ring size per session *)
  oplog_base : int;
  oplog_cap : int;
  slab_size : int;
  data_base : int;
  n_slabs : int;
}

val session_slot_len : int

(** Byte offsets of a session slot's 8-byte little-endian words. The
    back-end persists the first three; a recovering front-end reads them
    back with one RDMA read of {!slot_cursors_len} bytes. *)

val slot_lpn : int
(** The memory-log replay cursor, ring-relative. *)

val slot_opn : int
(** The highest operation number the replayed memory logs cover. *)

val slot_tail : int
(** The op-log GC cursor, ring-relative: where a walk starts. *)

val slot_inuse : int
(** Non-zero while the slot belongs to an open session. *)

val slot_cursors_len : int

val compute :
  ?naming_len:int ->
  ?meta_len:int ->
  ?memlog_cap:int ->
  ?oplog_cap:int ->
  ?slab_size:int ->
  capacity:int ->
  max_sessions:int ->
  unit ->
  t
(** Compute a layout for a device of [capacity] bytes. Raises
    [Invalid_argument] if the fixed areas do not leave room for at least
    one slab. *)

val store : Asym_nvm.Device.t -> t -> unit
(** Persist the layout into the superblock. *)

val load : Asym_nvm.Device.t -> t
(** Reconstruct the layout from the superblock. Raises [Failure] if the
    magic does not match (uninitialized device). *)

val memlog_region : t -> session:int -> int * int
(** [(base, len)] of a session's memory-log ring. *)

val oplog_region : t -> session:int -> int * int
val session_slot : t -> session:int -> int
val slab_addr : t -> int -> int
(** Address of the i-th slab. *)

val slab_index : t -> int -> int
(** Index of the slab containing an address in the data area. *)
