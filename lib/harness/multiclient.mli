(** Multi-front-end experiments, co-simulated with {!Asym_sim.Sched} at
    verb granularity: reader scalability (Figure 8), independent
    structures sharing a back-end (Figure 9), partitioning over several
    back-ends (Figure 10), CPU utilization (Figure 11), the §6.3 lock
    ping-point test, and a lock-contention scaling study. *)

type fig8_point = {
  writer_kops : float;
  reader_avg_kops : float;
  retry_ratio : float;  (** failed optimistic reads / attempted reads *)
}

val fig8_point :
  kind:Runner.ds_kind -> readers:int -> preload:int -> duration:Asym_sim.Simtime.t -> fig8_point
(** One writer (100% insert) plus [readers] reader front-ends on one
    shared structure. *)

val fig8 : preload:int -> duration:Asym_sim.Simtime.t -> Report.t

val fig9_point :
  kind:Runner.ds_kind -> n:int -> preload:int -> duration:Asym_sim.Simtime.t -> float
(** Aggregate KOPS of [n] front-ends, each writing its own structure on a
    shared back-end. *)

val fig9 : preload:int -> duration:Asym_sim.Simtime.t -> Report.t

val fig10_point : kind:Runner.ds_kind -> backends:int -> preload:int -> ops:int -> float
(** One front-end, structure key-hash-partitioned over [backends]
    back-end nodes. *)

val fig10 : preload:int -> ops:int -> Report.t

val fig11 : preload:int -> ops:int -> Report.t
(** Front-end vs back-end CPU utilization over windows of a 10% put / 90%
    get BST run. *)

val lock_bench : duration:Asym_sim.Simtime.t -> Report.t

type contention_point = {
  total_kops : float;  (** aggregate throughput of all writers *)
  lock_wait_share : float;
      (** summed writer-lock wait / summed elapsed virtual time *)
  avg_lock_wait_ns : float;  (** lock wait per completed operation *)
}

val contention_point :
  writers:int -> preload:int -> duration:Asym_sim.Simtime.t -> contention_point
(** [writers] front-ends all inserting into one shared BST, so every
    operation races for the same §6.1 writer lock. Each CAS probe is a
    co-simulation suspension point, so the lock-wait share measures true
    verb-level contention. *)

val contention :
  preload:int -> duration:Asym_sim.Simtime.t -> Report.t * (int * contention_point) list
(** 1, 2, 3, 4, 6 and 8 writers: the report and each writer count's point. *)
