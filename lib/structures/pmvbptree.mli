(** Multi-version (copy-on-write) B+Tree — the append-only B-Tree of §6.2.

    Uses the B+Tree's 512-byte node view, {!Pbptree.Node}, but never
    updates a live node: an insert edits the loaded copy of each node on
    the path (splitting a full one with {!Pbptree.Node.insert_split}),
    stores it at a fresh address and installs the version with a root CAS
    through {!Ds_intf.Frame}. Leaf chaining is dropped (a chained
    leaf would need in-place updates); in-order traversal goes through
    the tree. *)

val op_put : int
val op_delete : int

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
  val gc_drain : t -> unit
  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
