(** The AsymNVM front-end library (implements {!Store.S}).

    A client owns a connection to one back-end and provides the Table 1
    API: cached/direct reads, memory-log writes, operation logs,
    transactional flushes, the two-tier allocator, locks, and crash
    recovery. Its configuration selects the paper's ablation points:

    - [naive]   — AsymNVM-Naive: direct RDMA for every access
    - [r]       — AsymNVM-R: log reproducing (decoupled persistency)
    - [rc]      — AsymNVM-RC: + front-end DRAM cache
    - [rcb]     — AsymNVM-RCB: + operation log and batching *)

type config = {
  mode : [ `Direct | `Logged ];
      (** [`Direct]: every write is an in-place RDMA write (naive).
          [`Logged]: writes become memory logs replayed by the back-end. *)
  use_cache : bool;
  cache_bytes : int;
  cache_policy : Cache.policy;
  page_size : int;
  batch_size : int;
      (** operations per [rnvm_tx_write]; > 1 enables the operation log *)
  oplog_signaled : bool;
      (** when [false], operation-log appends are posted unsignaled and
          synchronized periodically — the stack/queue fast path *)
  flush_on_unlock : bool;
      (** force a flush before releasing the writer lock, required when
          several front-ends write the same structure *)
  pointer_wire_opt : bool;
      (** §4.3: replace a memory-log value already durable in the op log
          with a 12-byte pointer on the wire (ablation toggle) *)
}

val naive : unit -> config
val r : unit -> config
val rc : ?cache_bytes:int -> unit -> config
val rcb : ?cache_bytes:int -> ?batch_size:int -> unit -> config

val config_name : config -> string

type t

val connect : ?name:string -> config -> Backend.t -> clock:Asym_sim.Clock.t -> t
(** Open a session on the back-end. A cache's random and hybrid policies
    draw their victims from a fixed seed, so a rerun evicts the same
    pages. *)

include Store.S with type t := t

val pending_ops : t -> ds:Types.ds_id -> (int64 * int * bytes) list
(** Operations of one structure logged since the last flush, oldest
    first: [(opnum, optype, params)]. Push/pop annulment (§8.1) does not
    read it: the write overlay serves a pop of an unflushed push. *)

val persist_fence : t -> unit
(** §4.1 persistency fence: when it returns, every preceding write is
    durable {e and} applied to the back-end data area, so any later read —
    by anyone — observes it. (A plain [flush] already guarantees
    durability; the fence additionally waits out queued replay.) *)

val session : t -> Types.session_id
val config : t -> config

val connection : t -> Asym_rdma.Verbs.conn
(** The underlying verb connection — how tests and the fault fuzzer
    install {!Asym_rdma.Verbs.Fault} models and arm grey periods. *)

val ping : t -> bool
(** One retried 8-byte read of the superblock over the (possibly faulty)
    connection. [false] when even the full retry/reconnect budget could
    not get a verb through — lease-renewal loops use it to skip a period
    instead of letting a grey blip masquerade as a dead node. *)

val close : t -> unit
(** Flush, then release the session: its slot and log rings become
    available to another front-end. The client must not be used after
    (uses raise [Failure]). *)

(** {2 Failure handling (§7.2)} *)

val crash : t -> unit
(** Drop all volatile state: cache, overlay, buffered memory logs,
    allocator block lists, unflushed operation bookkeeping. *)

val recover : ?backend:Backend.t -> t -> Log.Op_entry.t list
(** The one way a front-end resumes after any §7.2 failure: its own crash
    (Cases 1/2), a back-end restart (Case 3, after {!Backend.restart}) or
    a mirror promotion (Case 4, with [~backend] the promoted back-end; the
    session id is kept, since sessions live in the replicated image).

    Drops all volatile state — cache, overlay, buffered logs, allocator
    block lists (§4.3: "the front-end node handles exceptions, aborts the
    transaction and clears the cache") — and reopens the session. Then it
    reads its cursors the way every other front-end path touches the
    back-end, with verbs: one RDMA read of the session slot (LPN, OPN,
    op-log tail) and one {!Log.walk} of its op log from the tail over
    windowed RDMA reads. For each lock a previous incarnation still holds
    it writes 0 to the lock word and logs the release, as
    [writer_unlock] does. Returns the operations past the OPN — those
    whose memory logs never became durable — for the caller
    (data-structure layer) to re-execute. *)

(** {2 Statistics} *)

val rdma_ops : t -> int

val rdma_bytes : t -> int
(** Total bytes this client put on the wire ({!Asym_rdma.Verbs}
    accounting) — the paper's bytes-per-operation argument. *)

val flushes : t -> int

val lock_wait_ns : t -> Asym_sim.Simtime.t
(** Total virtual time spent acquiring writer locks (CAS probes and
    spinning) — the contention signal the `contention` bench reports. *)

val fault_retries : t -> int
(** Verbs re-posted after a transient loss ({!Asym_rdma.Verbs.Verb_timeout}).
    Deterministic for a given fault seed — the `faultsweep` bench reports
    it per drop rate. *)

val reconnects : t -> int
(** Times the retry budget ran dry and the connection was re-established
    (degraded → reconnect → resume). *)

val allocator : t -> Front_alloc.t
