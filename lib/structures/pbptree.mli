(** Persistent B+Tree (lock-based, §8.3), fan-out 32.

    Fixed 512-byte nodes, values in out-of-line blobs, leaves chained for
    range scans. Deletion is leaf-local (no rebalancing — emptied leaves
    stay linked, the relaxed structure log-structured stores use), which
    keeps lookups exact while bounding write amplification. Upper levels
    are read through the cache with the adaptive §8.3 depth threshold. *)

val op_put : int
val op_delete : int

val fanout : int
val max_keys : int

(** The 512-byte node, independent of any store: a view over its on-media
    image, internal [[tag 2][nkeys][pad6][keys: 31 x u64][children: 32 x u64]],
    leaf [[tag 1][nkeys][pad6][next: u64][keys: 31 x u64][valptrs: 31 x u64]].
    Accessors read the image in place and every edit rewrites it, so a node
    loaded with [Store.S.read] is stored by writing the same buffer. The
    multi-version tree ({!Pmvbptree}) uses the same node; only its update
    discipline differs. *)
module Node : sig
  type t = bytes
  (** The [node_bytes]-byte image itself. *)

  val node_bytes : int

  val empty : bool -> t
  (** [empty leaf]: a fresh zeroed image with no keys. *)

  val leaf : t -> bool
  val nkeys : t -> int

  val key : t -> int -> int64
  (** [key n i]. Past the image's slots it reads one zero slot and then
      raises [Invalid_argument], so a traversal of a torn node fails inside
      its read section. *)

  val child : t -> int -> int
  (** Child address [i] of an internal node (same bounds as {!key}). *)

  val value : t -> int -> int
  (** Blob address [i] of a leaf (same bounds as {!key}). *)

  val next : t -> int
  (** Right sibling in the leaf chain; leaf only. *)

  val set_child : t -> int -> int -> unit
  val set_value : t -> int -> int -> unit
  val set_next : t -> int -> unit

  val child_index : t -> int64 -> int
  (** Child to descend into: the number of separator keys [<= key]. *)

  val leaf_pos : t -> int64 -> int
  (** Position of the key in a leaf, or its insertion point. *)

  val leaf_insert_at : t -> int -> int64 -> int -> unit
  (** [leaf_insert_at n pos key valptr]. The leaf must have room. *)

  val leaf_remove_at : t -> int -> unit
  (** Shift the later keys down. The vacated last slot keeps a stale copy. *)

  val internal_insert_at : t -> int -> int64 -> int -> unit
  (** [internal_insert_at n pos sep child] puts [sep] at [pos] and [child]
      right of it. The node must have room. *)

  val split : t -> int64 * t
  (** Move the upper half into a new right sibling, zeroing the vacated
      slots, and return the separator with it. A leaf keeps [nkeys / 2]
      keys, the separator is the sibling's first key and the sibling takes
      over [next]; an internal node pushes its middle key up. *)

  val insert_split : t -> int -> int64 -> int -> (int64 * t) option
  (** [insert_split n pos key ptr] inserts like {!leaf_insert_at} or
      {!internal_insert_at} when [n] has room and returns [None].
      Otherwise [n] and the returned sibling become the two halves that
      {!split} would make of [n] with the key inserted: [max_keys + 1]
      keys, split at [(max_keys + 1) / 2]. *)
end

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> S.t -> name:string -> t
  val handle : t -> Asym_core.Types.handle
  val put : t -> key:int64 -> value:bytes -> unit
  val find : t -> key:int64 -> bytes option
  val mem : t -> key:int64 -> bool
  val delete : t -> key:int64 -> bool

  val insert_vector : t -> (int64 * bytes) list -> unit
  (** Algorithm 3 applied to the B+Tree: one lock, one vector op log. *)

  val range : t -> lo:int64 -> hi:int64 -> (int64 * bytes) list
  (** Inclusive range scan along the leaf chain. *)

  val to_list : t -> (int64 * bytes) list
  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
