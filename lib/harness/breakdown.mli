(** Latency-attribution profiles: run one Table-3-style cell with
    observability on and read back where its virtual time went, by cause
    (the {!Asym_obs.Attr} taxonomy) and by shared resource (queue wait vs
    service, from the timelines). Behind `bench breakdown` and
    `asymnvm profile`. *)

type cell = {
  kind : Runner.ds_kind;
  config : string;
  res : Runner.result;
  attr : (Asym_obs.Attr.cause * int) list;  (** ns per cause, measured window *)
  round_trips : int;  (** signaled verbs (each pays a full RTT in client latency) *)
  resources : (string * int * int) list;  (** resource, queue ns, service ns *)
}

val run_cell :
  ?put_ratio:float -> ?dist:Asym_workload.Ycsb.distribution ->
  rig:Runner.rig -> cfg:Asym_core.Client.config -> preload:int -> ops:int ->
  Runner.ds_kind -> cell

val attr_ns : cell -> Asym_obs.Attr.cause -> int
(** Virtual ns the measured window charged to one cause. *)

val attr_total : cell -> int

val table : cell list -> Report.t
(** us/op, round-trips/op, and per-cause share columns; footnotes the
    conservation arithmetic for the first cell. *)

val resource_table : cell list -> Report.t
(** Queue-wait vs service time per NIC/CPU/lock timeline. *)

val default_cells : preload:int -> ops:int -> cell list
(** BPT across all four configs, plus HashTable / Queue / MV-BPT
    contrasts — the cells EXPERIMENTS.md discusses. *)
