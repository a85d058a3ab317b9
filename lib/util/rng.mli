(** Deterministic pseudo-random number generation.

    A thin, self-contained splitmix64 generator. Every stochastic component
    of the simulation (workload generators, skiplist levels, cache
    replacement sampling, failure injection) draws from an explicit [t] so
    that whole experiments are reproducible from a single seed. *)

type t

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t]. Used to give each simulated node its own stream. *)

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly chosen element. The array must be non-empty. *)
