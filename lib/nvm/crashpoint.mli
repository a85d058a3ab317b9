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
    front-end crash does not stop the back-end. The hook also owns
    tearing: a tear is decided before its write lands ({!landing}), so
    no device keeps a pre-image.

    All state is global: the checker runs one schedule at a time. When the
    hook is {!Off} and no tear is pending (the default), the per-write
    overhead is one ref read each in {!landing} and {!hit}. *)

exception Crash_injected of int
(** Raised by {!hit} when the armed boundary is reached; carries the
    boundary index (1-based). The hook disarms itself before raising, so
    recovery code running during unwinding is not re-interrupted. *)

val reset : unit -> unit
(** Disarm, drop any tear, zero the counter, clear census bookkeeping. *)

val set_census : unit -> unit
(** Count boundaries and record each one's site label; never raise. *)

val arm : ?torn:(int -> int) -> int -> unit
(** [arm n] raises {!Crash_injected} at the [n]-th boundary (1-based).
    With [torn], that boundary, if its verb is an [rdma.write*], lands
    only the first [torn len] of its [len] bytes; atomics land whole. *)

val tear_next : keep:int -> unit
(** The next plain mutation lands only its first [keep] bytes; atomics
    leave the tear pending. *)

val torn_keep : unit -> int option
(** Bytes the last torn mutation landed since {!reset}, if any. *)

val landing : len:int -> int
(** Bytes of a [len]-byte write, word write or zero that land (called by
    {!Device} before applying it): [len], unless a tear is due. *)

val sites : unit -> string array
(** Census: the ["verb/device-site"] label of each boundary, boundary [n]
    at index [n - 1]. *)

val site_counts : unit -> (string * int) list
(** Census histogram of {!sites}, sorted by label. *)

val tearable : string -> bool
(** Whether a verb or site label can tear: [rdma.write*] yes, atomics no. *)

val fired : unit -> (int * string) option
(** After an armed run: the boundary index and site label where the crash
    fired, or [None] if the schedule ended first. *)

val in_verb : string -> (unit -> 'a) -> 'a
(** Bracket one client-initiated verb; {!hit} only counts inside. *)

val hit : site:string -> unit
(** Report one media mutation (called by {!Device} after applying it). *)
