(** Persistent FIFO queue (§8.1).

    The root word names a header [{head; tail; count}]; elements are
    singly linked nodes with inline values. Enqueues link at the tail,
    dequeues unlink at the head — both ends are the only hot data, so the
    paper's observation that queues need almost no cache applies. *)

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> S.t -> name:string -> t
  val handle : t -> Asym_core.Types.handle
  val enqueue : t -> bytes -> unit
  val dequeue : t -> bytes option
  val peek : t -> bytes option
  val size : t -> int

  val to_list : t -> bytes list
  (** Head-first contents (test/debugging helper). *)

  val replay : t -> Asym_core.Log.Op_entry.t -> unit
end
