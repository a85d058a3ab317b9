(** The bench experiments, each declared once (DESIGN.md §6): one ordered
    table of the paper's evaluation, each entry holding its name, its doc
    line, whether it belongs to the CI smoke set, and a [run] returning
    its named reports and its shape checks. Each check is computed from
    the typed values its experiment's cells were rendered from, never by
    parsing the rendered cells back. [bench/main.exe] is command-line glue
    over {!all}. *)

type scale = {
  label : string;  (** ["quick"] or ["full"]: the bench document's [scale] *)
  sizes : Experiments.scale;
  duration : Asym_sim.Simtime.t;  (** virtual run time of the co-simulated figures *)
}

val quick : scale
val full : scale

type t = {
  name : string;  (** subcommand, report and check prefix *)
  doc : string;
  smoke : bool;  (** in the CI bench gate set (bench/baseline.json) *)
  run : scale -> (string * Report.t) list * Bench_json.check list;
}

val all : t list
(** Every experiment, in the order [bench all] runs them. *)

(** {2 Shape checks}

    Each takes the experiment name its verdicts are filed under and the
    typed values its report was rendered from. *)

val table3_checks : string -> Experiments.table3_row list -> Bench_json.check list
(** R at least 0.98x Naive and RC at least 0.85x R on every row, the best
    optimized cell at least 1.5x Naive, and MV-BPT's RCB at or above
    Symmetric. *)

val latency_checks :
  string -> (Runner.ds_kind * string * Runner.result) list -> Bench_json.check list
(** RCB's mean latency below Naive's on every structure. *)

val sensitivity_checks : string -> (string * float * float) list -> Bench_json.check list
(** RCB above Naive at every hardware point. *)

val contention_checks :
  string -> (int * Multiclient.contention_point) list -> Bench_json.check list
(** The lock-wait share grows from 1 writer to 8, and every writer count
    makes progress. *)

val breakdown_checks : string -> Breakdown.cell list -> Bench_json.check list
(** Conservation plus the two headline expectations: naive BPT dominated
    by [rdma_rtt]; RCB shifting the majority onto
    [local_compute]+[nvm_media]. *)

val faultsweep_checks : string -> Faultsweep.cell list -> Bench_json.check list
(** Zero read-back mismatches at every drop rate, throughput degrading
    monotonically (5% slack), and retries rising from exactly zero
    (faults off) to nonzero at the top drop rate. *)
