(** Persistent binary search tree (lock-based, §8.3).

    Unbalanced BST with fixed 32-byte nodes and out-of-line value blobs.
    Deletion splices the in-order successor (pointer surgery only, no
    payload copying). Node reads near the root go through the front-end
    cache; the depth threshold adapts to the observed miss ratio exactly
    as §8.3 prescribes. Sorted vector writes (Algorithm 3) amortize the
    writer lock and make consecutive keys share cached upper levels. *)

val op_put : int
val op_delete : int

(** The 32-byte node, [[left][right][key][valptr]], shared with
    {!Pmvbst}: byte offsets of each 8-byte field. *)
module Layout : sig
  val node_size : int
  val off_left : int
  val off_right : int
  val off_key : int
  val off_valptr : int
end

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> ?cache_all_levels:bool -> S.t -> name:string -> t
  (** [cache_all_levels] disables the level threshold — the "native LRU"
      baseline the paper compares against. *)

  val handle : t -> Asym_core.Types.handle
  val put : t -> key:int64 -> value:bytes -> unit
  val find : t -> key:int64 -> bytes option
  val mem : t -> key:int64 -> bool
  val delete : t -> key:int64 -> bool

  val insert_vector : t -> (int64 * bytes) list -> unit
  (** Algorithm 3: sort the batch, take the writer lock once, log one
      vector operation, apply every insert. *)

  val fold : t -> ('a -> int64 -> bytes -> 'a) -> 'a -> 'a
  (** In-order fold. *)

  val to_list : t -> (int64 * bytes) list

  val range : t -> lo:int64 -> hi:int64 -> (int64 * bytes) list
  (** Inclusive range scan, pruning subtrees outside the bounds. *)

  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
