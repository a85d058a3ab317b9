(** An open-addressed index from int keys to slot numbers, for tables
    that keep their entries in flat arrays indexed by slot: the caller
    owns the keys ([keys.(slot)] is the key of the entry in [slot]) and
    passes them in. Linear probing over a power-of-two bucket array at
    most half full. Nothing allocates except {!create} and {!grow}. *)

type t

val create : int -> t
(** [create n] holds up to [n] entries. *)

val capacity : t -> int
(** Entries the index holds before it must {!grow}. *)

val find : t -> keys:int array -> int -> int
(** The slot whose key this is, or -1. One probe run. *)

val add : t -> int -> int -> unit
(** [add t key slot] indexes a key that is not present. *)

val remove : t -> keys:int array -> int -> unit
(** Drop a present key (backward-shift delete: no tombstones). *)

val clear : t -> keys:int array -> int -> unit
(** [clear t ~keys n] empties an index whose entries are exactly slots
    [0, n), in time proportional to [n], not to the capacity. *)

val grow : t -> keys:int array -> int -> unit
(** [grow t ~keys n] doubles the capacity and re-indexes slots [0, n). *)
