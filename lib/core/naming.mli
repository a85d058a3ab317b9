(** The global naming space (§5.1).

    A small persistent dictionary at a well-known device location mapping
    names to [(kind, address)] pairs: data-structure roots, lock words,
    sequence numbers, partition maps. Both front-ends (via RPC) and the
    back-end consult it; after any crash it is the bootstrap point of
    recovery. The whole table is rewritten on update (it is tiny) with a
    trailing CRC. *)

type t

val create : Asym_nvm.Device.t -> base:int -> len:int -> t
(** Initialize an empty naming space on the device. *)

val load : Asym_nvm.Device.t -> base:int -> len:int -> t
(** Reload from the device. Raises [Failure] on checksum mismatch. *)

val set : t -> string -> Types.name_kind -> Types.addr -> unit
(** Insert or replace; persists immediately. *)

val find : t -> string -> (Types.name_kind * Types.addr) option
val remove : t -> string -> unit
val to_list : t -> (string * Types.name_kind * Types.addr) list
val persisted_len : t -> int
(** Current serialized size in bytes (what one update writes). *)
