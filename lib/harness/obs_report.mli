(** Plain-text rendering of the observability subsystem's aggregates
    through {!Report}, plus per-phase counter scoping for multi-phase
    experiments.

    Everything here is cheap and safe to call with observability
    disabled: the reports come out empty and {!phase} only runs its
    body. *)

val span_summary : unit -> Report.t
(** The span ring's complete spans grouped by name: count and total /
    mean / max simulated time, the 15 largest totals first (ties by name,
    descending). *)

val counter_summary : unit -> Report.t
(** The registry's 15 largest counters, labels rendered inline
    (["rdma.verbs{op=write}"]); ties by rendered name, descending. *)

type series = string * Asym_obs.Registry.labels * int
(** One counter: name, sorted labels, value. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase label f] scopes the metrics registry to [f]: the registry and
    the attribution sink are cleared on entry; on completion the sink is
    folded into [attr.ns{cause=...}] counters, every counter is kept under
    [label] (see {!phase_snapshots}) and the registry is reset, so each
    experiment phase starts from zero. The span ring is left alone —
    traces span phases. No-op wrapper while disabled. *)

val phase_snapshots : unit -> (string * series list) list
(** Snapshots collected by {!phase}, oldest first; each one's series are
    sorted by name, then labels. *)

val counter_series : string -> series list -> (Asym_obs.Registry.labels * int) list
(** All (labels, value) points of one counter in a phase snapshot. *)

val reset_phases : unit -> unit

val phases_report : unit -> Report.t
(** One row per collected phase: its series count and total RDMA verbs
    and wire bytes, a quick cross-phase orientation table. *)
