(** Counting crash-point hook (lib/check's fault-schedule instrument).

    A {e crash point} is an NVM-mutating boundary initiated by a front-end
    node: one remote write, CAS or fetch-add reaching the media. The
    checker first runs a workload in {e census} mode, counting every
    boundary and recording its site label; it then re-runs the workload
    once per boundary with the hook {e armed}, which raises
    {!Crash_injected} the instant that boundary's mutation has reached the
    media — the state a real front-end crash would leave behind (the write
    is durable but its ack was never seen).

    The device reports mutations via {!hit}; the RDMA verb layer brackets
    each verb with {!in_verb} so that (a) boundaries are attributed to the
    initiating verb and (b) back-end–local mutations (log replay, RPC
    bookkeeping, mirror replication) are {e not} crash points — a
    front-end crash does not stop the back-end.

    All state is global: the checker runs one schedule at a time. When the
    hook is {!Off} (the default) the per-write overhead is one ref read. *)

exception Crash_injected of int
(** Raised by {!hit} when the armed boundary is reached; carries the
    boundary index (1-based). The hook disarms itself before raising, so
    recovery code running during unwinding is not re-interrupted. *)

val reset : unit -> unit
(** Disarm, zero the counter, clear census bookkeeping. *)

val set_census : unit -> unit
(** Count boundaries and record site labels; never raise. *)

val arm : int -> unit
(** [arm n] raises {!Crash_injected} at the [n]-th boundary (1-based). *)

val boundaries : unit -> int
(** Boundaries counted since the last {!reset}. *)

val site_counts : unit -> (string * int) list
(** Census histogram: ["verb/device-site"] label to occurrence count,
    sorted by label. *)

val fired : unit -> (int * string) option
(** After an armed run: the boundary index and site label where the crash
    fired, or [None] if the schedule ended first. *)

val in_verb : string -> (unit -> 'a) -> 'a
(** Bracket one client-initiated verb; {!hit} only counts inside. *)

val hit : site:string -> unit
(** Report one media mutation (called by {!Device} after applying it). *)
