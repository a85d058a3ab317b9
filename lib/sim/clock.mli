(** Per-node virtual clock with busy-time accounting.

    Each simulated node (front-end, back-end, mirror) owns one clock.
    [advance] models time the node spends doing work (counts as busy);
    [wait_until] models blocking on a remote event (idle). The busy/total
    split is what Figure 11 (CPU utilization) reports. *)

type t

type _ Effect.t += Yield : t -> unit Effect.t
(** Performed by {!yield} once a {e cooperating} clock has moved past its
    limit (see {!set_limit}) — the suspension point of the verb-granular
    co-simulation. {!Sched.run} installs the handler; a clock advanced
    outside a scheduler never performs it. *)

val create : ?name:string -> unit -> t
val name : t -> string
val now : t -> Simtime.t

val advance : ?cause:Asym_obs.Attr.cause -> t -> Simtime.t -> unit
(** Spend [d] nanoseconds of busy time, charged to [cause] (default
    [Local_compute]) in the attribution sink when observability is on,
    then {!yield}. *)

val charge : ?cause:Asym_obs.Attr.cause -> t -> Simtime.t -> unit
(** {!advance} without the {!yield}: for a run of advances with no side
    effect between them, which then yield once. *)

val yield : t -> unit
(** Suspend to the scheduler if this clock is past its limit, i.e. another
    cooperating client must run first. A no-op outside {!Sched.run}. *)

val wait_until : ?cause:Asym_obs.Attr.cause -> t -> Simtime.t -> unit
(** Block (idle) until the given absolute time, if it is in the future.
    The idle gap is charged to [cause] (default [Local_compute]). *)

val busy : t -> Simtime.t
(** Total busy time accumulated so far. *)

val attr : t -> Asym_obs.Attr.local
(** This clock's attribution sink: everything [advance]/[wait_until]
    charge lands here {e and} in the global sink. Per-operation windows
    are taken against this local sink so they survive mid-operation
    suspension under the co-simulation. *)

val set_limit : t -> Simtime.t -> unit
(** The latest time the clock may reach before {!yield} performs
    {!Yield}: [max_int] (the default) never performs, [min_int] performs
    at every yield. Only {!Sched.run} should set it — a clock with a
    finite limit must be running under its handler. *)

val utilization : t -> since:Simtime.t -> busy_since:Simtime.t -> float
(** Utilization over the window from [since] (with [busy_since] the busy
    counter sampled at that moment) to now. *)

val reset : t -> unit
