(** `bench faultsweep`: throughput, retry counts, and a read-back
    consistency check vs per-verb drop rate, driving the
    {!Asym_rdma.Verbs.Fault} transient-loss model through the full
    client retry stack. Loss schedules are seeded, so retry counts
    reproduce run-to-run. *)

type cell = {
  kind : Runner.ds_kind;
  config : string;
  drop : float;  (** per-verb loss probability of this cell *)
  kops : float;
  retries : int;  (** verbs re-posted after a timeout *)
  reconnects : int;  (** degraded-reconnect cycles *)
  timeouts : int;  (** verbs lost by injection *)
  delays : int;  (** delivered verbs that ate an injected delay *)
  bad_reads : int;  (** read-back mismatches — any nonzero is a failure *)
}

val default_cells : preload:int -> ops:int -> cell list
(** B+-tree puts under RCB and Naive, one cell per drop rate. *)

val table : cell list -> Report.t
