(** Persistent chained hash table (§8.2).

    A header names a contiguous bucket array of pointer words; collisions
    chain through [[next][key][len][value]] nodes. Updates replace the
    whole node (constant node geometry keeps chain surgery to one pointer
    write). Key/value items are the caching granularity; batching brings
    no benefit to an O(1) structure, which is why the paper's Table 3 has
    no RCB column for it. *)

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> ?nbuckets:int -> S.t -> name:string -> t
  (** [nbuckets] (default 4096) is fixed at creation and ignored when
      opening an existing table — the persistent header wins. *)

  val handle : t -> Asym_core.Types.handle
  val put : t -> key:int64 -> value:bytes -> unit
  val get : t -> key:int64 -> bytes option
  val delete : t -> key:int64 -> bool
  val mem : t -> key:int64 -> bool
  val size : t -> int

  val iter : t -> (int64 -> bytes -> unit) -> unit
  (** Full scan, bucket by bucket (unordered). *)

  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
