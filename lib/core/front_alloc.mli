(** Front-end tier of the two-tier NVM allocator (§5.2).

    The back-end hands out fixed-size slabs (via the Malloc/Free RPCs);
    this tier carves them into power-of-two size classes and serves most
    allocations from purely local free lists. Block-level state is
    volatile by design: after a front-end crash only slab-level occupancy
    is reconstructed (from the back-end's persistent bitmap), trading a
    bounded leak inside partially-used slabs for allocation speed — the
    paper's exact trade-off. Emptied slabs beyond 64 are returned to the
    back-end. *)

exception Out_of_nvm

type backend_ops = {
  slab_size : int;
  alloc_slabs : int -> Types.addr;  (** RPC to the back-end; raises {!Out_of_nvm} *)
  free_slabs : Types.addr -> int -> unit;
  free_slab_batch : Types.addr list -> unit;  (** batched periodic reclamation *)
  slab_base_of : Types.addr -> Types.addr;  (** align an address down to its slab *)
}

type t

val create : backend_ops -> t
(** Eight slabs are fetched per back-end RPC, amortizing the network
    round trip over many block allocations. *)

val alloc : t -> int -> Types.addr
(** Allocate [size] bytes of back-end NVM. Requests larger than half a
    slab go straight to the back-end as contiguous slab runs. *)

val free : t -> Types.addr -> len:int -> unit
(** Release an allocation made through {!alloc} with the same size.
    Freeing a block that belongs to a pre-crash incarnation's slab leaks
    it (block-level free lists are volatile by design, §5.2). *)

val allocations : t -> int
val slab_rpcs : t -> int
(** How many allocations had to fall through to the back-end RPC. *)
