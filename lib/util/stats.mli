(** Small statistics toolkit for experiment reporting. *)

val mean : float array -> float
val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,100\]]; sorts a copy. *)

module Histogram : sig
  type t

  val create : buckets:float array -> t
  (** [buckets] are upper bounds in increasing order; an implicit +inf
      bucket is appended. *)

  val add : t -> float -> unit
  val counts : t -> (float * int) array
  (** Pairs of (upper bound, count); the last bound is [infinity]. *)

  val total : t -> int

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,100\]], linearly interpolated from
      the bucket counts (the first bucket's lower edge is taken as 0; the
      overflow bucket reports its finite lower edge). Raises
      [Invalid_argument] on an empty histogram. *)
end
