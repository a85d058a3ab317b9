(** Small statistics toolkit for experiment reporting. *)

val mean : float array -> float
val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,100\]]; sorts a copy. *)
