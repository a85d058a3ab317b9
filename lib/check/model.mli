(** Pure in-OCaml reference models for the persistent structures.

    The checker validates a recovered persistent structure against one of
    these models: assoc-map semantics for the key/value structures
    (pbst, pbptree, phash, pskiplist, pmvbst, pmvbptree) and sequence
    semantics for pstack (LIFO) and pqueue (FIFO). Models are immutable so
    the explorer can keep the model after every prefix of a schedule and
    compare a post-crash state against "k ops completed" and "k ops plus
    the in-flight one" simultaneously. *)

type op =
  | Put of int64 * bytes
  | Delete of int64
  | Push of bytes
  | Pop

type t
(** An immutable model state. *)

val empty_map : t
val empty_lifo : t
val empty_fifo : t

val apply : t -> op -> t
(** Raises [Invalid_argument] on an op of the wrong kind (map op on a
    sequence or vice versa). *)

val dump : t -> (int64 * bytes) list
(** Canonical observable state: maps as key-sorted bindings, sequences as
    [(position, element)] with position 0 the top (LIFO) / head (FIFO). *)

val random_op : Asym_util.Rng.t -> kind:[ `Map | `Seq ] -> i:int -> op
(** Deterministic i-th schedule op from an explicit generator: for maps a
    put (3/4, value tagged with [i]) or delete over a small hot key range;
    for sequences a push (7/10) or pop. Values are >= 12 bytes with a
    non-zero tail so torn-write injection corrupts real payload bytes. *)

val generate : kind:[ `Map | `Seq ] -> ops:int -> seed:int64 -> op list
