(** Multi-version binary search tree (lock-free, §6.2 / Figure 5).

    Immutable 32-byte nodes; every mutation path-copies from the touched
    node up to the root and publishes the new version with a single
    compare-and-swap of the root word. Readers never lock, never retry,
    and always see a complete version. Superseded nodes wait out the §6.2
    grace period in the lazy GC before their NVM is reclaimed. *)

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> S.t -> name:string -> t
  val handle : t -> Asym_core.Types.handle
  val put : t -> key:int64 -> value:bytes -> unit
  val find : t -> key:int64 -> bytes option
  val mem : t -> key:int64 -> bool
  val delete : t -> key:int64 -> bool
  val fold : t -> ('a -> int64 -> bytes -> 'a) -> 'a -> 'a
  val to_list : t -> (int64 * bytes) list

  val gc_pending : t -> int
  (** Superseded allocations still inside their grace period. *)

  val gc_drain : t -> unit
  (** Reclaim everything immediately (teardown/tests only — unsafe while
      concurrent readers may hold old versions). *)

  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
