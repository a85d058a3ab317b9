(** Synthetic industry trace (paper §9.6, Figure 13).

    The paper evaluates against production traces of an Alibaba online
    service and reports only their shape: power-law key popularity, keys
    hashed to 64 bytes, values of 64 B – 8 KB, operations PUSH/POP for the
    queue/stack and PUT/GET for the index structures. This generator
    reproduces exactly those published characteristics (the substitution
    is recorded in DESIGN.md). *)

type op = Push of bytes | Pop | Put of int64 * bytes | Get of int64

type t

val create :
  ?keyspace:int ->
  kind:[ `Kv of float (* put ratio *) | `Fifo of float (* push ratio *) ] ->
  Asym_util.Rng.t ->
  t

val next : t -> op

val value_size : t -> int
(** Draw one power-law value size in [\[64, 8192\]]. *)
