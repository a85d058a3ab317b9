(** A contended shared resource (a NIC, a replay engine).

    A timeline serializes work items: a request arriving at virtual time
    [at] for [dur] nanoseconds starts at [max at free] and pushes the
    resource's free time forward. This is a standard single-server queue
    and is how back-end NIC saturation (Figs 8–10) manifests in the
    simulation. Writer locks are not timelines: lock contention (§6) is
    the CAS probes a loser spins, each booking a slot on the NIC. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

val acquire : t -> at:Simtime.t -> dur:Simtime.t -> Simtime.t
(** [acquire t ~at ~dur] returns the start time of the granted slot.
    The slot ends at [start + dur]. A request at or after every booked
    slot starts at [at] and costs O(1) (half to three quarters of all
    requests in the perfbench workloads); an earlier one takes the
    earliest idle gap that fits, found by binary search and a first-fit
    walk. Allocates nothing with observability off. *)

val free_at : t -> Simtime.t
(** Next time the resource is free. *)

val busy_total : t -> Simtime.t
(** Total busy time scheduled on this resource. *)

val queued_total : t -> Simtime.t
(** Total queueing delay (request time to grant time) absorbed by
    requests on this resource. With observability on, the same split is
    published as [timeline.queue_ns] / [timeline.service_ns] counters
    labelled by resource name. *)
