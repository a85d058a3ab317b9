(** Key-hash partitioning (§8.3).

    Wraps N independent instances of any structure: each partition has its
    own writer lock and index, so a writer in one partition never blocks
    readers of the others, and partitions placed on different back-ends
    spread the NIC load (Figure 10). The partition count is persisted in
    the global naming space so recovery routes keys identically. *)

val hash : int64 -> int -> int
(** [hash key n] is the partition index of [key] among [n] partitions —
    shared with external routers (multi-back-end deployments with one
    client per back-end) so they agree with [route]. *)

module Make (S : Asym_core.Store.S) : sig
  type 'ds t

  val create : S.t -> name:string -> n:int -> attach:(int -> 'ds) -> 'ds t
  (** Build or open the partition map on [map_store], then attach every
      underlying instance. An existing map's partition count overrides
      [n]. *)

  val npartitions : 'ds t -> int
  val route : 'ds t -> int64 -> 'ds
  val part : 'ds t -> int -> 'ds
  val iter_parts : 'ds t -> ('ds -> unit) -> unit
end
