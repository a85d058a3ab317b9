(** The metrics registry: named monotonic counters with optional
    [(key, value)] labels (e.g. ["rdma.verbs"] with [("op", "write")]).

    All mutating entry points are no-ops while the global observability
    gate is off, so instrumentation left in hot paths costs one branch.
    There is one process-wide registry, which every instrumentation site
    records into. Readers walk it with {!fold_counters}; {!reset} clears
    every series, which is how the harness scopes counters to one
    experiment phase. *)

type labels = (string * string) list
(** Label order is irrelevant: keys are canonicalized by sorting. *)

(** {2 Recording} (no-ops while observability is disabled) *)

val inc : ?labels:labels -> string -> unit
(** Increment a monotonic counter by one. *)

val add : ?labels:labels -> string -> int -> unit
(** Increment a monotonic counter by [n >= 0]. *)

(** {2 Reading} *)

val counter_value : ?labels:labels -> string -> int
(** 0 when the series does not exist. *)

val fold_counters : (string -> labels -> int -> 'a -> 'a) -> 'a -> 'a
(** Every series, in no particular order; labels come sorted. *)

val reset : unit -> unit
(** Drop every series (works even while disabled, so phases can start
    clean). *)
