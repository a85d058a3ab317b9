(** Mirror node (§7.1).

    A mirror receives the back-end's persistent-write stream asynchronously
    and maintains a byte-identical replica of the back-end's media image.
    An NVM-backed mirror can be voted the new back-end on permanent failure
    (Case 4); an SSD-backed mirror can only be used to rebuild a fresh
    back-end. The replication never blocks the front-end: the back-end
    forwards writes after acknowledging the transaction. *)

open Asym_sim

type kind = Nvm_backed | Ssd_backed

type t

val create : ?name:string -> kind:kind -> capacity:int -> Latency.t -> t
val kind : t -> kind
val name : t -> string
val device : t -> Asym_nvm.Device.t

val forward : t -> from_nic:Timeline.t -> at:Simtime.t -> len:int -> unit
(** Charge one forwarded write of [len] bytes and store nothing (a
    replayed frame, which its drain zeroes anyway): the sending NIC, this
    mirror's NIC and its media; never blocks the caller's clock. A
    crashed mirror takes nothing. *)

val replicate :
  t -> from_nic:Timeline.t -> at:Simtime.t -> addr:int -> pos:int -> len:int -> bytes -> unit
(** {!forward}, then store the [len] bytes of the buffer from [pos]. *)

val write : t -> addr:int -> pos:int -> len:int -> bytes -> unit
val write_u64 : t -> addr:int -> int64 -> unit
val zero : t -> addr:int -> len:int -> unit
(** Uncharged updates, skipped on a crashed mirror too: a replayed
    frame's data-area entries (inside the frame {!forward} charged),
    sequence-number and cursor words, and ring truncation. *)

val bytes_replicated : t -> int
val writes_replicated : t -> int

val crash : t -> unit
val is_crashed : t -> bool
val restart : t -> unit
