(** Virtual time, in integer nanoseconds.

    All performance accounting in the simulation is expressed in this unit.
    Plain [int] is used (63-bit on 64-bit platforms), which covers ~292
    simulated years — far beyond any experiment here. *)

type t = int

val zero : t
val us : int -> t
val ms : int -> t
val sec : float -> t
val to_sec : t -> float
val to_us : t -> float
val max : t -> t -> t
val pp : Format.formatter -> t -> unit
