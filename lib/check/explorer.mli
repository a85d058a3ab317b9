(** Exhaustive crash-point sweep (census / replay / validate).

    One sweep of a structure works in three phases:

    + {e Census}: run the deterministic schedule once with the
      {!Asym_nvm.Crashpoint} hook counting, recording every NVM-mutating
      boundary a front-end initiates (operation-log appends, transaction
      flushes, deferred root CASes, wrap markers, ...).
    + {e Replay}: re-run the schedule once per boundary with the hook
      armed. The injected {!Asym_nvm.Crashpoint.Crash_injected} leaves the
      world exactly as a front-end crash would: the boundary's write is on
      the media, its ack was never observed. Each tearable boundary is
      additionally re-run with its write landing torn, without its last
      7 bytes (RDMA atomics cannot tear, so the census's site label of
      an atomic boundary rules its torn run out before it starts). Then
      [Client.crash], [Client.recover], structure re-attach, op replay
      through {!Asym_structs.Registry}, and a flush.
    + {e Validate}: the recovered dump must equal the reference model
      after the [k] completed operations, or after [k + 1] (the in-flight
      operation is atomic: fully applied iff its operation-log record
      survived). A probe operation then proves the structure still accepts
      writes.

    Failures carry a one-line reproducer for [asymnvm check]. *)

type failure = {
  point : int;  (** 1-based crash-point index into the census *)
  site : string;  (** census site label of the boundary *)
  torn : int option;  (** bytes kept by the tear injection, if torn *)
  completed : int;  (** schedule ops completed before the crash *)
  detail : string;
}

type outcome = {
  structure : string;
  ops : int;
  seed : int64;
  drop : float;  (** per-verb drop rate the sweep ran under (0 = none) *)
  boundaries : int;  (** census size *)
  sites : (string * int) list;  (** census histogram *)
  points_run : int;  (** replay runs executed (clean + torn variants) *)
  failures : failure list;
}

val sweep :
  ?stride:int -> ?tear:bool -> ?drop:float -> Subject.t -> ops:int -> seed:int64 -> outcome
(** [stride] samples every [stride]-th crash point (default 1 =
    exhaustive); [tear] (default true) adds the torn variant of each
    tearable point. [drop] (default 0) runs the whole sweep under the
    {!Asym_rdma.Verbs.Fault} transient-loss model — the loss schedule is
    seeded from [seed], so the census and every armed replay lose the
    same verbs and the boundary numbering stays aligned. Crashes then
    land on retried verbs too, compounding transient faults with
    permanent ones. *)

val run_point :
  ?drop:float -> Subject.t -> ops:int -> seed:int64 -> point:int -> tear:bool -> failure option
(** Re-run a single crash point (the reproducer entry point). *)

val reproducer : outcome -> failure -> string
(** Shell command that replays exactly this failing schedule. *)

val pp_outcome : Format.formatter -> outcome -> unit
