(** The back-end NVM node.

    Owns the NVM device, the global naming space, the slab allocator, the
    per-session log rings and the replay engine. Entirely {e passive}: it
    never initiates communication — front-ends either touch its memory with
    one-sided verbs or invoke the fixed RPC set of Table 1, and the only
    CPU it spends is replaying persisted memory logs into the data area and
    serving allocator/naming RPCs (which is why its utilization in
    Figure 11 stays under ~10%). *)

type t

val create :
  ?name:string ->
  ?max_sessions:int ->
  ?memlog_cap:int ->
  ?oplog_cap:int ->
  ?slab_size:int ->
  capacity:int ->
  Asym_sim.Latency.t ->
  t
(** Initialize a fresh back-end on a new NVM device. *)

val of_device : ?name:string -> Asym_nvm.Device.t -> Asym_sim.Latency.t -> t
(** Bring up a back-end over an existing, already-formatted device (mirror
    promotion, restart after permanent-failure recovery). Replays any
    pending logs, exactly like {!restart}. *)

val name : t -> string
val device : t -> Asym_nvm.Device.t
val nic : t -> Asym_sim.Timeline.t
val cpu : t -> Asym_sim.Timeline.t
val latency : t -> Asym_sim.Latency.t
val layout : t -> Layout.t

val attach_mirror : t -> Mirror.t -> unit
val mirrors : t -> Mirror.t list

(** {2 Failure injection} *)

val crash : t -> unit
(** Crash the back-end. Until {!restart}, every RPC and replay raises
    {!Asym_rdma.Verbs.Failure_detected}. *)

type session_status = Session_consistent | Session_torn_tail

val restart : t -> (Types.session_id * session_status) list
(** Reboot: reload layout, naming, allocator and session metadata from the
    media, then redo every intact memory-log transaction found past each
    session's LPN (§7.2 Case 3.a). Sessions whose log tail fails its
    checksum are reported as [Session_torn_tail] (Case 3.b) — their
    front-end must re-flush. *)

(** {2 RPC (management interface, §5.1)} *)

val rpc :
  t -> conn:Asym_rdma.Verbs.conn -> session:Types.session_id option -> Rpc_msg.request ->
  Rpc_msg.response
(** Execute one management RPC, charging the calling client two network
    round trips plus the back-end processing time (RFP model). *)

(** {2 Log ingestion (called by the front-end library)} *)

val memlog_ring : t -> session:Types.session_id -> int * int
val oplog_ring : t -> session:Types.session_id -> int * int

val drain_session : t -> session:Types.session_id -> arrival:Asym_sim.Simtime.t -> unit
(** Replay all complete transactions in the session's memory-log ring,
    one {!Log.walk} from the LPN: apply entries to the data area, bump the
    per-structure sequence number around each application (the SN
    optimistic readers validate against, Algorithm 2; the mirrors get
    the new value) and forward each frame to the mirrors, charged but not
    stored. Then zero the walked span, persist the LPN and OPN, and
    truncate the op log past what the OPN covers (a walk from the
    persisted tail; the new tail is persisted first). Both rings zero a
    consumed span, across the wrap, on the back-end and every live mirror.
    A recovering front-end reads the session slot and walks its op log
    itself. Media changes immediately; the work is charged to the
    back-end CPU timeline starting at [arrival], and the caller is not
    blocked. *)

val replicate_raw : t -> at:Asym_sim.Simtime.t -> addr:Types.addr -> bytes -> unit
(** Forward bytes that a front-end wrote with a one-sided verb (operation
    logs, root CAS words) to the mirrors, so the replica image stays
    byte-identical for promotion. *)

(** {2 Concurrency support} *)

val seqno : t -> ds:Types.ds_id -> int64

(** {2 Statistics} *)

val replayed_txs : t -> int
val replayed_entries : t -> int

(** Memory-log frames scanned with an OPN at or below the session's
    covered cursor — retransmissions from a client retry after a lost
    ack. They are absorbed idempotently (redo entries carry absolute
    addresses); this counter makes the dedup explicit and testable. *)
val dup_replays_absorbed : t -> int
val rpcs_served : t -> int
val used_slabs : t -> int
