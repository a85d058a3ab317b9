(** Shared machinery for the experiment harness.

    Builds rigs (a back-end plus optional mirrors), attaches the eight
    data structures through {!Asym_structs.Catalog} on both
    architectures, and the three drivers every table/figure cell is
    built from: {!loaded_client} (preload through a throwaway front-end),
    {!measure} (a timed single-client loop) and {!race} (a closed-loop
    multi-client window under {!Asym_sim.Sched}). Throughput is
    virtual-time throughput: operations divided by the simulated
    nanoseconds they spanned. *)

type ds_kind = Asym_structs.Catalog.kind =
  | Queue
  | Stack
  | Hash_table
  | Skip_list
  | Bst
  | Bpt
  | Mv_bst
  | Mv_bpt

val ds_name : ds_kind -> string
(** The report label, {!Asym_structs.Catalog.label}. *)

val all_ds : ds_kind list

val is_fifo : ds_kind -> bool

type instance = Asym_structs.Catalog.instance = {
  put : int64 -> bytes -> unit;
  get : int64 -> bytes option;
  del : int64 -> bool;
  push : bytes -> unit;
  pop : unit -> bytes option;
  vput : ((int64 * bytes) list -> unit) option;
  cleanup : unit -> unit;
  register : Asym_structs.Registry.t -> unit;
  dump : unit -> (int64 * bytes) list;
}

val ds_opts : shared:bool -> ds_kind -> Asym_structs.Ds_intf.options
(** The evaluation's locking discipline: ordered index structures take
    the writer lock; queue/stack/hash run single-writer; the MV trees
    synchronize via root CAS. *)

val client_instance :
  ?shared:bool -> ds_kind -> Asym_core.Client.t -> name:string -> instance
(** Attach through {!Asym_structs.Catalog.Make} over the front-end, with
    {!ds_opts} and a 16384-bucket hash table. *)

(** {2 Rigs} *)

type rig = { bk : Asym_core.Backend.t; lat : Asym_sim.Latency.t }

val make_rig :
  ?name:string -> ?capacity:int -> ?max_sessions:int -> ?memlog_cap:int -> ?mirrors:int ->
  Asym_sim.Latency.t -> rig

val fresh_client : ?name:string -> rig -> Asym_core.Client.config -> Asym_core.Client.t
(** A client whose clock starts at the back-end's current horizon so it
    does not queue behind setup traffic. *)

val fifo_rcb : unit -> Asym_core.Client.config
(** RCB with an unsignaled operation-log append: the configuration the
    queue/stack cells use. *)

val with_cache_pct : rig -> Asym_core.Client.config -> float -> Asym_core.Client.config
(** Size the front-end cache as a fraction of the NVM actually in use
    (Table 3 uses 10%). *)

(** {2 Measured runs} *)

val value_of : ?size:int -> int64 -> bytes

val preload_instance : instance -> fifo:bool -> n:int -> value_size:int -> unit
(** Load [n] items: pushes for FIFO structures; for key/value structures,
    keys spread over the whole measurement key space in shuffled order
    (an ordered preload would degenerate the unbalanced trees). *)

type result = {
  kops : float;
  ops : int;
  elapsed : Asym_sim.Simtime.t;
  retries : int;
  cache_hits : int;
  cache_misses : int;
  verbs : int;  (** RDMA verbs posted during the measured window (0 for symmetric runs) *)
  wire_bytes : int;  (** payload bytes those verbs moved *)
  lat_mean_us : float;  (** mean per-operation virtual latency *)
  lat_p50_us : float;
  lat_p99_us : float;
}

val kops_of : int -> Asym_sim.Simtime.t -> float
(** Operations over elapsed virtual time, in thousands per second (0 for
    an empty window). *)

val measure :
  clock:Asym_sim.Clock.t -> ops:int -> (int -> unit) ->
  float * Asym_sim.Simtime.t * float array
(** Run [f 0 .. f (ops-1)] and time them on [clock]: KOPS, the elapsed
    virtual time, and each operation's virtual latency in microseconds. *)

val loaded_client :
  rig -> name:string -> cache_pct:float -> load:(Asym_core.Client.t -> unit) ->
  Asym_core.Client.config -> Asym_core.Client.t
(** [load] fills the rig through a throwaway [Client.rcb ~batch_size:256]
    front-end ([name ^ ".preload"]), which is then flushed; the measured
    client connects with {!with_cache_pct}[ cache_pct]. *)

val local_store :
  name:string -> cfg:Asym_baseline.Local_store.config -> Asym_sim.Latency.t ->
  Asym_baseline.Local_store.t
(** A symmetric-baseline store on a fresh clock named ["sym." ^ name]. *)

val align : Asym_sim.Clock.t list -> Asym_sim.Simtime.t
(** Move every clock up to their makespan, the common starting line. *)

val race :
  duration:Asym_sim.Simtime.t -> (Asym_sim.Clock.t * (unit -> unit)) list ->
  Asym_sim.Simtime.t * int list
(** Closed-loop co-simulated window: {!align} the clocks at [t0], then run
    each [(clock, step)] under {!Asym_sim.Sched}, repeating [step] until
    [clock] reaches [t0 + duration]. Returns [t0] and each client's count
    of completed steps. *)

val run_asym :
  ?cache_pct:float -> ?put_ratio:float -> ?dist:Asym_workload.Ycsb.distribution -> rig:rig ->
  cfg:Asym_core.Client.config -> kind:ds_kind -> preload:int -> ops:int -> unit -> result
(** One Table-3-style cell on the AsymNVM architecture: preload through a
    throwaway client, warm the measurement client, measure. Values are
    64 bytes; the cache defaults to 10% of the preloaded NVM, the mix to
    100% PUT over uniform keys. *)

val run_asym_trace :
  rig:rig -> cfg:Asym_core.Client.config -> kind:ds_kind -> preload:int -> ops:int ->
  put_ratio:float -> unit -> result
(** Figure-13 variant: the synthetic industry trace (power-law keys,
    64 B – 8 KB values), with the cache at 10% of the preloaded NVM. *)

val run_sym :
  lat:Asym_sim.Latency.t -> cfg:Asym_baseline.Local_store.config -> kind:ds_kind ->
  preload:int -> ops:int -> unit -> result
(** The same cell on the symmetric baseline: 64-byte values, 100% PUT
    over uniform keys. *)
