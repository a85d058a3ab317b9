(** Mirror node (§7.1).

    A mirror receives the back-end's persistent-write stream asynchronously
    and maintains a byte-identical replica of the back-end's media image.
    An NVM-backed mirror can be voted the new back-end on permanent failure
    (Case 4); an SSD-backed mirror can only be used to rebuild a fresh
    back-end. The replication never blocks the front-end: the back-end
    forwards writes after acknowledging the transaction. *)

type kind = Nvm_backed | Ssd_backed

type t

val create : ?name:string -> kind:kind -> capacity:int -> Asym_sim.Latency.t -> t
val kind : t -> kind
val name : t -> string
val device : t -> Asym_nvm.Device.t
val nic : t -> Asym_sim.Timeline.t

val replicate :
  t -> from_nic:Asym_sim.Timeline.t -> at:Asym_sim.Simtime.t -> addr:int -> ?len:int -> bytes -> unit
(** Apply one forwarded write of the first [len] bytes of the buffer
    (default: all of it). Charges the sending NIC, this mirror's NIC and
    its media; never blocks the caller's clock. *)

val bytes_replicated : t -> int
val writes_replicated : t -> int

val crash : t -> unit
val is_crashed : t -> bool
val restart : t -> unit
