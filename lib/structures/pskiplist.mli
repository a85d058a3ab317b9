(** Persistent skiplist (§8.4 — the paper's running example, Figure 2).

    Probabilistic multi-level list anchored by a max-level head sentinel;
    values live in out-of-line blobs so updates never change node
    geometry. Writers populate a new node's successors before swinging the
    predecessors bottom-up and unlink top-down, so a reader walking the
    list always observes a consistent view. Reads at level 1 and above go
    through the front-end cache (taller nodes are visited exponentially
    more often); level-0 reads bypass it. *)

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> ?rng:Asym_util.Rng.t -> S.t -> name:string -> t

  val handle : t -> Asym_core.Types.handle
  val put : t -> key:int64 -> value:bytes -> unit
  val find : t -> key:int64 -> bytes option
  val mem : t -> key:int64 -> bool
  val delete : t -> key:int64 -> bool

  val range : t -> lo:int64 -> hi:int64 -> (int64 * bytes) list
  (** Inclusive range scan along level 0. *)

  val to_list : t -> (int64 * bytes) list
  (** Ascending key order. *)

  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
