(** Persistent stack (§8.1).

    LIFO over remote NVM: the root word names a header holding the top
    pointer and the element count; elements are singly linked nodes with
    inline values. Because only the top is ever touched, a front-end needs
    to cache just the head node, and a pop issued while the matching push
    is still buffered is served entirely from the write overlay — the
    paper's push/pop annulment optimization falls out of the log design. *)

module Make (S : Asym_core.Store.S) : sig
  type t

  val attach : ?opts:Ds_intf.options -> S.t -> name:string -> t
  (** Create the named stack, or open it if the naming space already knows
      it. With [opts.use_lock] every mutation runs under the exclusive
      writer lock; with [opts.shared] reads validate optimistically. *)

  val handle : t -> Asym_core.Types.handle

  val push : t -> bytes -> unit
  (** Durable when it returns, per the store's configuration (§4). *)

  val pop : t -> bytes option
  val peek : t -> bytes option
  val size : t -> int

  val to_list : t -> bytes list
  (** Top-first contents (test/debugging helper; walks every node). *)

  val replay : t -> Asym_core.Log.Op_entry.t -> unit
  (** Re-execute one recovered operation-log record (§7.2). *)
end
