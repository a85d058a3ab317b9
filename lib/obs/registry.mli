(** The metrics registry: named monotonic counters and log-scale
    histograms, with optional [(key, value)] labels
    (e.g. ["rdma.verbs"] with [("op", "write")]).

    All mutating entry points are no-ops while the global observability
    gate is off, so instrumentation left in hot paths costs one branch.
    There is one process-wide registry, which every instrumentation site
    records into. Snapshots render to JSON; {!reset} clears every series,
    which is how the harness scopes metrics to one experiment phase. *)

type labels = (string * string) list
(** Label order is irrelevant: keys are canonicalized by sorting. *)

(** {2 Recording} (no-ops while observability is disabled) *)

val inc : ?labels:labels -> string -> unit
(** Increment a monotonic counter by one. *)

val add : ?labels:labels -> string -> int -> unit
(** Increment a monotonic counter by [n >= 0]. *)

val observe : ?labels:labels -> string -> float -> unit
(** Record a sample into a log-scale histogram (powers of two from 1 to
    2^39, suiting nanosecond latencies from 1 ns to ~9 min). *)

(** {2 Reading} *)

val counter_value : ?labels:labels -> string -> int
(** 0 when the series does not exist. *)

val histogram : ?labels:labels -> string -> Asym_util.Stats.Histogram.t option

val fold_counters : (string -> labels -> int -> 'a -> 'a) -> 'a -> 'a

val to_json : unit -> Json.t
(** Snapshot every series. Histograms include their non-empty buckets and
    interpolated p50/p99. *)

val reset : unit -> unit
(** Drop every series (works even while disabled, so phases can start
    clean). *)
