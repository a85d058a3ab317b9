(** Latency attribution: a cause tag for every virtual nanosecond.

    Each [Sim.Clock] owns a local per-cause sink and charges every
    forward movement of the clock into it ({!local_charge} is called
    from [advance]/[wait_until], so a clock's per-cause sums equal its
    elapsed virtual time by construction — the conservation property the
    test suite asserts). The same charge lands in the global sink
    ({!get}, {!total}), which {!reset} clears (the locals stay), so it is
    the sum of what every clock charged since the last reset. Charging
    is a no-op while the observability gate is off. *)

type cause =
  | Rdma_rtt  (** fixed RDMA round-trip / atomic-verb latency *)
  | Rdma_bytes  (** wire serialization time, proportional to payload *)
  | Nic_queue  (** queueing behind other work on the remote NIC *)
  | Nvm_media  (** NVM media read/write time visible to the client *)
  | Lock_wait  (** acquiring the writer lock: CAS probes + spinning *)
  | Read_retry  (** optimistic read sections that failed validation *)
  | Replay_wait  (** persist fences waiting out back-end log replay *)
  | Alloc_rpc  (** management RPCs (allocation, naming, sessions) *)
  | Fault_retry
      (** transient-fault handling: verb-timeout waits, injected fabric
          delays, retry backoff and reconnect handshakes *)
  | Local_compute  (** front-end DRAM/CPU work (cache hits, buffering) *)

val all : cause list
val name : cause -> string
val of_name : string -> cause option

val get : cause -> int
val total : unit -> int
val breakdown : unit -> (cause * int) list
(** Non-zero causes only. *)

val reset : unit -> unit

(** {2 Per-clock local sinks}

    Under the verb-granular co-simulation several clocks interleave
    their charges, so a window over the global sink would absorb other
    clients' causes. Windows are therefore taken over one clock's local
    sink; {!local_charge} and {!local_reattribute} update the global sink
    by the same amounts, so it remains the sum of all locals. *)

type local
type snapshot

val local_create : unit -> local
val local_charge : local -> cause -> int -> unit
(** Add [d] ns to a cause, locally and globally (no-op when disabled or
    [d <= 0]). *)

val local_total : local -> int

val local_snapshot : local -> snapshot
(** A copy of the local sink, for windowed deltas. *)

val local_since : local -> snapshot -> (cause * int) list
(** Per-cause ns the clock charged since the snapshot (all causes). *)

val local_reattribute : local -> since:snapshot -> cause -> unit
(** Re-classify everything the clock charged since the snapshot as
    [cause] (total preserved) — how failed read-section attempts become
    [Read_retry]. The same deltas are mirrored into the global sink. *)

val flush_to_registry : unit -> unit
(** Move the sink into [attr.ns{cause=...}] registry counters and clear
    it (phase scoping). *)
