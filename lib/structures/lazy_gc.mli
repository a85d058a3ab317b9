(** Lazy NVM reclamation for the multi-version structures (§6.2).

    After a version switch the superseded nodes may still be under
    traversal by a reader that started earlier, so frees are deferred by
    [n + l] microseconds of virtual time (the paper fixes n/l at
    4000/1000 µs); every read is required to complete within n µs. *)

module Make (S : Asym_core.Store.S) : sig
  type t

  val create : S.t -> t
  val defer : t -> Asym_core.Types.addr -> len:int -> unit

  val pump : t -> unit
  (** Free everything whose grace period expired; called by the
      multi-version structures at operation boundaries. *)

  val drain : t -> unit
  (** Free everything immediately (teardown/tests only). *)

  val pending : t -> int
end
