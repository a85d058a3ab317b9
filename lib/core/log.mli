(** On-media formats of AsymNVM's three log kinds (paper Figure 3).

    - {e Memory log}: low level, one entry per patched byte range
      ([flag, addr, length, value]); the back-end replays entries into the
      data area.
    - {e Transaction log}: a batch of memory-log entries framed by a header,
      a commit flag and a CRC32, appended to a session's memory-log ring by
      one [rnvm_tx_write].
    - {e Operation log}: high level, one entry per data-structure operation
      ([type, ds, opnum, parameters, checksum]); replayed by the front-end
      during recovery.

    The header extends Figure 3 with the data-structure id and the highest
    operation number the transaction covers — both needed by recovery (§7.2)
    and by the per-structure sequence numbers (§6.3); the paper stores the
    same facts in its LPN/OPN metadata.

    Values are always encoded inline so that checksums and torn-write
    detection operate on real bytes. The §4.3 optimization that replaces a
    value with a pointer into the operation log is accounted in
    {!Frame.wire}, which is what the simulated NIC charges for. *)

val crc_check : bool ref
(** Test-only: when set to [false], {!Tx.scan} and {!Op_entry.scan} accept
    records whose CRC32 does not match — a deliberately broken torn-write
    detector. lib/check's canary test clears it to prove the crash-point
    sweep notices a recovery path that replays corrupted records. Always
    [true] outside that test. *)

type 'a scan =
  | Record of 'a * int  (** a valid record and the bytes it consumed *)
  | Torn  (** started but fails framing or checksum — a torn write *)
  | Wrap  (** wrap marker: continue scanning at the ring base *)
  | Empty  (** zero byte: end of written log *)
(** What a ring holds at a scanned position; both log kinds frame the same
    way. *)

val wrap_marker : bytes
(** The one byte a front-end writes where a record no longer fits before
    the ring's end. *)

module Mem_entry : sig
  type t = {
    addr : Types.addr;
    value : bytes;
    from_op : int64 option;
        (** operation-log number that already carries this value; when set,
            the wire representation is a 12-byte pointer, not the value *)
  }

  val make : ?from_op:int64 -> addr:Types.addr -> bytes -> t
end

(** A batch of transaction frames laid out as the writes happen. A logged
    front-end appends each memory-log entry straight into the buffer that
    [rnvm_tx_write] ships, opening a new frame whenever the structure id
    changes: one frame per consecutive run of same-structure entries keeps
    the global write order for replay. The batch's highest op number is
    only known at the flush, so {!seal} fills each frame's op number, the
    open frame's entry count and commit tag, and every CRC in place. *)
module Frame : sig
  type t

  val create : unit -> t

  val append : t -> ds:Types.ds_id -> ?from_op:int64 -> addr:Types.addr -> bytes -> unit
  (** Copy one entry (header and value) into the batch; the buffer is the
      caller's again on return. [from_op] marks a value the operation log
      already holds: the entry then stores that op number and costs a
      12-byte pointer on the wire. Allocates only when the buffer grows. *)

  val is_empty : t -> bool
  (** Nothing appended since {!create} or {!reset}. *)

  val seal : ?ds:Types.ds_id -> t -> op_hi:int64 -> unit
  (** Complete every frame for a flush covering operations up to [op_hi].
      With nothing appended the batch is one empty transaction for
      structure [ds] (default 0), which still advances the OPN. Sealing
      moves no entry, so appends may follow and a later seal redoes it. *)

  val buffer : t -> bytes
  (** The sealed batch: its first {!length} bytes. *)

  val length : t -> int
  (** Bytes of the sealed batch as stored. *)

  val wire : t -> int
  (** Bytes the NIC moves for the sealed batch, with the op-log pointer
      optimization. *)

  val reset : t -> unit
  (** Forget every entry, keeping the buffer. *)
end

module Tx : sig
  type t = { ds : Types.ds_id; op_hi : int64; entries : Mem_entry.t list }
  (** One frame written as a list: the form tests and tools build. *)

  val encode : t -> bytes
  (** The stored frame: the entries appended to a fresh {!Frame} under
      [ds], then sealed. *)

  val wire_size : t -> int
  (** {!Frame.wire} of that frame. *)

  type view = {
    ds : Types.ds_id;
    op_hi : int64;
    count : int;  (** entries in the frame *)
    at : int;  (** buffer offset of the frame; its entries follow the header *)
  }
  (** A checked frame, read in place: its entries stay in the scanned
      buffer. *)

  val scan : ?lim:int -> bytes -> pos:int -> view scan
  (** Examine the log ring contents at [pos]: the frame's layout, bounds,
      commit tag and CRC. Bytes from [lim] (default the buffer's length)
      on are not looked at: a frame that runs past it is [Torn]. Costs one
      pass over the frame (the CRC) and allocates the view, never a copy
      of an entry value. *)

  val iter_entries : bytes -> view -> (addr:Types.addr -> pos:int -> len:int -> unit) -> unit
  (** [iter_entries buf v f] calls [f] on each entry of the frame [v] that
      {!scan} found in [buf], in log order: the entry's value is the [len]
      bytes of [buf] from [pos]. A pointer entry stores its op number in
      the 8 bytes before its address; replay never reads it. Allocates
      nothing. *)
end

module Op_entry : sig
  type t = { ds : Types.ds_id; opnum : int64; optype : int; params : bytes }

  val encode : t -> bytes

  val scan : ?lim:int -> bytes -> pos:int -> t scan
  (** Like {!Tx.scan}. *)
end

(** {2 The lock-ahead log (§6.1)}

    A writer logs an acquire record naming the lock before it takes the
    lock and a release record after it lets go, so recovery can find a
    lock a crashed holder left set. *)

val internal_optype : int -> bool
(** Record types from 250 up are the framework's own (lock-ahead
    records); data-structure operations use 0..249. *)

val lock_record : acquire:bool -> opnum:int64 -> Types.addr -> Op_entry.t
(** The acquire or release record for the lock word at the address. *)

val track_lock : Types.addr list -> Op_entry.t -> Types.addr list
(** Fold one record into the set of locks held: those whose acquire
    record has no release record after it. Other records leave the set
    as it is. *)

(** {2 The ring walk} *)

type walk_end = {
  head : int;  (** Where the walk ended: the append head. *)
  torn : bool;  (** A torn frame ended it rather than a zero byte. *)
  lap_end : int;
      (** One past the wrap marker the walk crossed, or [cap] when it
          crossed none: where the bytes walked before the wrap end. *)
}

val walk :
  scan:(?lim:int -> bytes -> pos:int -> 'a scan) ->
  read:(pos:int -> len:int -> bytes) ->
  cap:int ->
  from:int ->
  ('a -> pos:int -> len:int -> unit) ->
  walk_end
(** Walk a [cap]-byte ring of [scan]'s frames ({!Op_entry.scan} or
    {!Tx.scan}) from ring offset [from], calling [f x ~pos ~len] on each in
    log order while the buffer [read ~pos ~len] returned last holds it.
    It reads 4 KiB windows and decodes every whole frame in one before
    reading the next; a frame cut by a window's end is re-read from its
    start, the window growing 4x while the frame alone overruns it (the
    same [pos] asked for again with a larger [len]). It walks one lap at
    most: a ring overrun by its writer has no zero byte. Memory-log
    replay, op-log GC and front-end recovery all walk with it. *)
