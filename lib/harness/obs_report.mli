(** Plain-text rendering of the observability subsystem's aggregates
    through {!Report}, plus per-phase metric scoping for multi-phase
    experiments.

    Everything here is cheap and safe to call with observability
    disabled: the reports come out empty and {!phase} only runs its
    body. *)

val span_summary : unit -> Report.t
(** Top-15 spans by total simulated time (count / total / mean / max). *)

val counter_summary : unit -> Report.t
(** Top-15 counters by value, labels rendered inline. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase label f] scopes the metrics registry to [f]: the registry and
    the attribution sink are cleared on entry; on completion the sink is
    folded into [attr.ns{cause=...}] counters, the registry is
    snapshotted under [label] (see {!phase_snapshots}) and reset, so each
    experiment phase starts from zero. The span ring is left alone —
    traces span phases. No-op wrapper while disabled. *)

val phase_snapshots : unit -> (string * Asym_obs.Json.t) list
(** Snapshots collected by {!phase}, oldest first. *)

val counter_series : string -> Asym_obs.Json.t -> ((string * string) list * int) list
(** All (labels, value) points of one counter in a phase snapshot. *)

val reset_phases : unit -> unit

val phases_report : unit -> Report.t
(** One row per collected phase: counter count and total RDMA verbs, a
    quick cross-phase orientation table. *)
