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

type bound
(** A bound in [\[1, 2^30\]] with its reciprocal, to draw [int t n] many
    times without a division each. *)

val bound : int -> bound
(** Raises [Invalid_argument] outside [\[1, 2^30\]]. *)

val rem : bound -> int -> int
(** [rem (bound n) x] is [x mod n] for [0 <= x < 2^30], by one multiply
    and one shift. *)

val argmin : t -> bound -> draws:int -> int array -> int
(** [argmin t (bound n) ~draws keys] draws [max 1 draws] indices, the same
    values in the same order as that many [int t n] calls and leaving [t]
    where they leave it, and returns the first drawn index whose [keys]
    entry is smallest. Keys must be non-negative and [keys] at least [n]
    long. Allocates nothing. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly chosen element. The array must be non-empty. *)
