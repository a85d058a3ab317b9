(** Simulated one-sided RDMA verbs.

    A {!conn} links a front-end node's clock to a back-end node's NVM
    through the back-end's NIC timeline. One-sided operations never involve
    the remote CPU — only the remote NIC and the NVM media — which is the
    property AsymNVM's passive back-end design (§3.3) depends on.

    Cost model per verb: the remote NIC is occupied for the posting cost
    plus payload serialization plus NVM media time; the initiating client
    blocks for the full round trip. [write] is durable when it returns
    (the ack): a write torn in flight lands torn, as
    {!Asym_nvm.Crashpoint} decides for failure tests. *)

exception Failure_detected of string
(** The RNIC feedback a front-end gets from a crashed back-end (paper §7.2
    Case 3). The back-end's RPC and replay entry points raise it; the
    one-sided verbs here do not model a dead remote and never do. *)

exception Verb_timeout of string
(** A signaled verb's completion never arrived within the timeout: the
    verb was lost to transient fabric trouble (see {!Fault}), not to a
    dead node. The initiating layer may retry — log appends and data
    writes land at absolute addresses and replay is opnum-idempotent, so
    re-posting is always safe; atomics only ever lose the {e request}
    (never the ack), so retrying them cannot double-apply. *)

(** Per-connection transient-fault model: seeded per-verb loss and extra
    fabric delay, plus armed "grey periods" of elevated loss. All draws
    come from one generator seeded at {!set_fault}, so a faulty run is
    reproducible byte-for-byte from its seed. *)
module Fault : sig
  type t = {
    seed : int64;
    drop_p : float;  (** baseline per-verb loss probability *)
    grey_drop_p : float;  (** loss probability inside a grey window *)
    delay_p : float;  (** extra-delay probability for delivered verbs *)
    delay_ns : int;  (** maximum injected fabric delay per verb *)
    timeout_ns : int;  (** 0 = use the connection's [verb_timeout_ns] *)
  }

  val make :
    ?drop_p:float ->
    ?grey_drop_p:float ->
    ?delay_p:float ->
    ?delay_ns:int ->
    ?timeout_ns:int ->
    seed:int64 ->
    unit ->
    t
  (** Defaults: no baseline loss or delay, [grey_drop_p] = 0.9. *)
end

type conn

val connect :
  client:Asym_sim.Clock.t ->
  remote_nic:Asym_sim.Timeline.t ->
  remote_mem:Asym_nvm.Device.t ->
  Asym_sim.Latency.t ->
  conn

val client_clock : conn -> Asym_sim.Clock.t

val set_fault : conn -> Fault.t option -> unit
(** Install (or clear, with [None]) the transient-fault model. Clearing
    also disarms any remaining grey windows. *)

val arm_grey : conn -> from_:Asym_sim.Simtime.t -> until:Asym_sim.Simtime.t -> unit
(** Arm a grey period: verbs posted in [\[from_, until)] of virtual time
    are lost with [grey_drop_p] instead of [drop_p]. Windows auto-expire
    as the clock passes them. No effect until a fault model is set. *)

val verb_timeouts : conn -> int
(** Verbs lost to fault injection (each raised {!Verb_timeout}). *)

val injected_delays : conn -> int
(** Delivered verbs that suffered an injected fabric delay. *)

val read : conn -> addr:int -> len:int -> bytes
(** RDMA_Read: one round trip, blocks the client. *)

val read_into : conn -> addr:int -> bytes -> pos:int -> len:int -> unit
(** {!read} into [len] bytes of the buffer from [pos]. *)

val write : ?wire_len:int -> ?len:int -> conn -> addr:int -> bytes -> unit
(** RDMA_Write of the first [len] bytes of the buffer (default: all of
    it) with remote durability ack: one round trip. [wire_len] overrides
    the payload size used for cost accounting — the front-end library uses
    it for the §4.3 optimization that ships an operation-log pointer in
    place of a value already durable in the op log (the media still
    receives the full record so checksums stay honest). *)

val write_unsignaled : conn -> addr:int -> bytes -> unit
(** Posted write without waiting for completion: client pays only the
    posting cost; durability is only guaranteed after a later signaled
    verb completes. Used by the symmetric baseline's asynchronous log
    shipping. *)

val compare_and_swap : conn -> addr:int -> expected:int64 -> desired:int64 -> int64
val fetch_add : conn -> addr:int -> int64 -> int64

val lock_probe : conn -> addr:int -> bool
(** One §6.1 writer-lock acquisition probe: an RDMA CAS trying to flip
    the lock word 0 -> 1; [true] when it won. Cost is charged to
    [Lock_wait]; under the co-simulation each probe is a suspension
    point, so spinning interleaves with the lock holder's verbs and the
    NIC observes the true concurrent arrival order of the probes. Not
    counted in {!ops_posted}/{!bytes_on_wire} (Table 1 separates lock
    traffic from per-operation verbs). *)

val ops_posted : conn -> int
(** Number of verbs posted on this connection (IOPS accounting). *)

val bytes_on_wire : conn -> int
