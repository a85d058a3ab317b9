(** Single-client experiments of the paper's evaluation: Tables 2 and 3,
    Figures 6/7/12/13, the §4.4 cache-policy study and the design-choice
    ablations. Each function runs its experiment at the given scale and
    returns a printable report; see EXPERIMENTS.md for paper-vs-measured
    commentary. Multi-client experiments live in {!Multiclient}. *)

type scale = {
  preload : int;  (** keys loaded before measuring *)
  ops : int;  (** measured operations per cell *)
  subscribers : int;  (** TATP population *)
  accounts : int;  (** SmallBank population *)
}

val quick : scale
val full : scale

val table1 : scale -> Report.t
(** RDMA wire cost per operation: KOPS, verbs/op and payload bytes/op for
    every asymmetric cell of the Table-3 matrix, from the NIC counters
    ({!Asym_rdma.Verbs.ops_posted} / [bytes_on_wire]). *)

val table2 : scale -> Report.t
(** Allocator comparison: Glibc / Pmem / RPC-only / two-tier at 128 B and
    1024 B slabs (§5.2, Table 2). *)

type table3_row = {
  bench : string;
  symmetric : float;
  symmetric_b : float option;
  naive : float;
  r : float;
  rc : float option;  (** absent for queue/stack *)
  rcb : float option;  (** absent for SmallBank and the hash table *)
}
(** One Table-3 row in KOPS; [None] is a cell the paper leaves empty. *)

val table3 : scale -> Report.t * table3_row list
(** Overall performance: 8 structures + TATP + SmallBank across
    Symmetric, Symmetric-B, Naive, R, RC, RCB (Table 3). *)

val fig6 : scale -> Report.t
(** Throughput vs batch size 1…4096; BST/BPT via sorted vector writes. *)

val fig7 : scale -> Report.t
(** Throughput vs cache size (1/5/10/20% of used NVM). *)

val fig12 : scale -> Report.t
(** Uniform vs Zipf(.5/.9/.99) workloads. *)

val fig13 : scale -> Report.t
(** Industry-trace mixes (power-law keys, 64 B – 8 KB values) across
    Naive / R / RC. *)

val latency : scale -> Report.t * (Runner.ds_kind * string * Runner.result) list
(** Extension: per-operation virtual latency (mean/p50/p99) per
    configuration, with each row's structure, configuration name and
    measured cell. *)

val ycsb : scale -> Report.t
(** Extension: the standard YCSB core workloads A/B/C/D/F. *)

val sensitivity : scale -> Report.t * (string * float * float) list
(** Extension beyond the paper: sweep the RDMA round trip and the NVM
    media latency, reporting how the RCB/Naive advantage responds; each
    row's hardware label with its Naive and RCB KOPS. *)

val cache_policy : scale -> Report.t
(** §4.4: LRU vs RR vs the hybrid choose-set policy. *)

val ablation : scale -> Report.t
(** On/off comparisons of individual design choices: §8.1 annulment, the
    §4.3 wire-pointer optimization, §8.3 level caching, §4.2 transaction
    coalescing. *)
