(** Seeded random-schedule fuzzer.

    Where {!Explorer} enumerates every crash point of one deterministic
    schedule, the fuzzer explores the cluster-level state space: several
    front-end clients — each owning its own instance of the subject
    structure on one shared back-end — interleave random operations with
    client crashes (+ recovery and op replay), transient back-end
    restarts, mirror crashes, and keepAlive-driven mirror promotion
    (§7.2 Case 4) via {!Asym_cluster.Failover}.

    Each client's instance is validated against its own reference model,
    so any divergence — lost op, duplicated replay, stale cache, botched
    promotion — shows up as a dump/model mismatch. Schedules are fully
    determined by [seed]: a failing run's command line is its
    reproducer. *)

type outcome = {
  structure : string;
  clients : int;
  steps : int;
  seed : int64;
  ops_applied : int;
  validations : int;  (** model/dump comparisons performed (incl. final) *)
  client_crashes : int;
  backend_restarts : int;
  mirror_crashes : int;
  promotions : int;
  fault_drop : float;  (** per-verb drop rate the run was fuzzed under *)
  grey_periods : int;  (** grey windows armed by fault-schedule steps *)
  verb_timeouts : int;  (** verbs lost to injection (current connections) *)
  fault_retries : int;  (** retried verbs, summed over clients *)
  reconnects : int;  (** degraded-reconnect cycles, summed over clients *)
  failures : string list;
}

val run : ?clients:int -> ?drop:float -> Subject.t -> steps:int -> seed:int64 -> outcome
(** [clients] defaults to 2. Each client owns an independently named
    instance of the subject, so every structure — including the
    single-writer multi-version ones — fuzzes under multi-client load.

    [drop] (default 0) turns on the {!Asym_rdma.Verbs.Fault} transient
    fault model: every verb is lost with probability [drop] (plus
    injected delays, plus randomly armed grey periods of heavy loss
    shorter than the keepAlive lease). The schedule is a pure function
    of [seed] and draws nothing from the RNG when [drop] is 0, so
    faults-off runs replay historical schedules unchanged. Any
    dump/model divergence or spurious failover under loss is a bug in
    the retry layer, not an accepted outcome. *)

val reproducer : outcome -> string
(** The [asymnvm check] command line that replays the run: structure,
    steps, seed, client count and, when faults were on, the drop rate. *)

val pp_outcome : Format.formatter -> outcome -> unit
