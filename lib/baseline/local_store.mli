(** The best-possible symmetric NVM architecture (the paper's §9.2
    baseline, rows "Symmetric" and "Symmetric-B" of Table 3).

    Data structures live in NVM on the local memory bus and are mutated
    with stores plus persist fences; for fault tolerance an update log is
    shipped to a remote NVM node {e asynchronously} (the paper notes this
    gives the symmetric upper bound but "will obviously cause
    inconsistency" on an ill-timed crash — the front-end never waits for
    the replica). Implements {!Asym_core.Store.S}, so every data-structure
    functor of this repository runs unchanged against it.

    Cost model: reads/writes pay NVM media latency per 64-byte line;
    operations pay a persist fence at commit; log shipping pays only the
    NIC posting cost ([Symmetric]) or a batched post every [log_batch]
    operations ([Symmetric-B]). *)

type config = { log_batch : int }

val symmetric : config
val symmetric_b : config
(** Ships the log in batches of 1024 operations. *)

type t

val create :
  ?name:string -> ?capacity:int -> ?cfg:config -> Asym_sim.Latency.t ->
  clock:Asym_sim.Clock.t -> t

include Asym_core.Store.S with type t := t
