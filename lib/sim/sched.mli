(** Verb-granular cooperative co-simulation.

    Each client runs inside an OCaml 5 effect handler: a forward movement
    of its clock ({!Clock.advance}/{!Clock.wait_until}) that takes it past
    another client's suspends it via {!Clock.Yield}, and the scheduler
    resumes the client whose clock is globally earliest — so clients
    interleave {e within} operations, at the granularity of individual
    RDMA verbs, lock CAS probes, cache hits and log flushes. A client that
    is still earliest runs on without suspending.

    Scheduling is deterministic: the next client is picked from a binary
    min-heap keyed on (virtual time, client id), where the id is the
    client's position in the list given to {!run} — a pure function of
    virtual time with a fixed tie-break, so the same seeds reproduce the
    same interleaving byte for byte. *)

type client

val client : clock:Clock.t -> run:(unit -> unit) -> client
(** A straight-line client: [run] is the client's whole program,
    suspended transparently at every clock advance. Loop/termination
    conditions (e.g. a measurement deadline) live in the body itself. *)

val run : client list -> unit
(** Run all clients to completion. Clients never suspend permanently: an
    abandoned continuation would strand counters and locks
    mid-operation. *)

val makespan : Clock.t list -> Simtime.t
(** Largest [now] among the given clocks. *)
