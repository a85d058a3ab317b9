(* The bench experiments, each declared once: its name, doc line and run,
   next to the shape checks EXPERIMENTS.md states in
   prose. A check is computed from the typed values its experiment's cells
   were rendered from. Thresholds carry slack so quick-scale noise does not
   flap them (e.g. HashTable's best/Naive is only ~1.95x at quick scale). *)

module Obs = Asym_obs

type scale = { label : string; sizes : Experiments.scale; duration : Asym_sim.Simtime.t }

let quick = { label = "quick"; sizes = Experiments.quick; duration = Asym_sim.Simtime.ms 25 }
let full = { label = "full"; sizes = Experiments.full; duration = Asym_sim.Simtime.ms 80 }

type t = {
  name : string;
  doc : string;
  run : scale -> (string * Report.t) list * Bench_json.check list;
}

(* -- shape checks ------------------------------------------------------------ *)

let verdict experiment cname pass detail = { Bench_json.experiment; cname; pass; detail }

(* Pass with [detail] unless some row fails [ok]; then name the first one. *)
let every e cname detail label ok rows =
  match List.find_opt (fun row -> not (ok row)) rows with
  | None -> verdict e cname true detail
  | Some row -> verdict e cname false (Printf.sprintf "%s (fails at %s)" detail (label row))

let table3_checks e (rows : Experiments.table3_row list) =
  let label (w : Experiments.table3_row) = w.bench in
  let speedup =
    (* Some optimized configuration beats Naive by >= 1.5x on every row. *)
    let best (w : Experiments.table3_row) =
      List.fold_left Float.max w.r (List.filter_map Fun.id [ w.rc; w.rcb ])
    in
    match List.find_opt (fun (w : Experiments.table3_row) -> best w < 1.5 *. w.naive) rows with
    | None -> verdict e "optimized_speedup" true "best of R/RC/RCB >= 1.5x Naive on every row"
    | Some w ->
        verdict e "optimized_speedup" false
          (Printf.sprintf "best optimized < 1.5x Naive at %s" w.bench)
  in
  let crossover =
    (* §6.2: batched multi-versioning is where AsymNVM overtakes the
       symmetric upper bound (quick scale: only the MV-BPT row). *)
    match List.find_opt (fun w -> label w = Runner.ds_name Runner.Mv_bpt) rows with
    | Some { symmetric = sym; rcb = Some rcb; _ } ->
        verdict e "mv_crossover" (rcb >= sym)
          (Printf.sprintf "MV-BPT RCB %.1f vs Symmetric %.1f" rcb sym)
    | _ -> verdict e "mv_crossover" false "missing MV-BPT row"
  in
  [
    every e "r_at_least_naive" "log reproducing never loses to Naive (2% slack)" label
      (fun w -> w.r >= 0.98 *. w.naive)
      rows;
    speedup;
    crossover;
    every e "rc_no_regression" "the cache never costs more than 15% vs R alone" label
      (fun w -> match w.rc with Some rc -> rc >= 0.85 *. w.r | None -> true)
      rows;
  ]

let latency_checks e rows =
  let mean kind config =
    List.find_map
      (fun (k, c, r) -> if k = kind && c = config then Some r.Runner.lat_mean_us else None)
      rows
  in
  let bad =
    List.find_opt
      (fun (kind, c, r) ->
        c = "RCB"
        && match mean kind "Naive" with Some n -> r.Runner.lat_mean_us >= n | None -> false)
      rows
  in
  [
    (match bad with
    | None -> verdict e "rcb_mean_latency" true "RCB mean latency below Naive on every benchmark"
    | Some (kind, _, _) ->
        verdict e "rcb_mean_latency" false
          (Printf.sprintf "RCB mean >= Naive at %s" (Runner.ds_name kind)));
  ]

let sensitivity_checks e rows =
  [
    every e "rcb_advantage" "RCB beats Naive across the whole latency range"
      (fun (label, _, _) -> label)
      (fun (_, naive, rcb) -> rcb > naive)
      rows;
  ]

let contention_checks e points =
  let share n =
    Option.map (fun p -> 100. *. p.Multiclient.lock_wait_share) (List.assoc_opt n points)
  in
  let share_grows =
    match (share 1, share 8) with
    | Some s1, Some s8 ->
        verdict e "lock_wait_grows" (s8 > s1)
          (Printf.sprintf "lock-wait share %.1f%% at 1 writer -> %.1f%% at 8" s1 s8)
    | _ -> verdict e "lock_wait_grows" false "missing row"
  in
  let throughput_positive =
    match List.find_opt (fun (_, p) -> p.Multiclient.total_kops <= 0.0) points with
    | None -> verdict e "throughput_positive" true "every writer count makes progress"
    | Some (n, _) ->
        verdict e "throughput_positive" false (Printf.sprintf "no progress at %d writers" n)
  in
  [ share_grows; throughput_positive ]

let breakdown_checks e (cells : Breakdown.cell list) =
  let find kind config =
    List.find_opt (fun (cl : Breakdown.cell) -> cl.kind = kind && cl.config = config) cells
  in
  let rtt cl = Breakdown.attr_ns cl Obs.Attr.Rdma_rtt in
  let conservation =
    match
      List.find_opt
        (fun (cl : Breakdown.cell) -> Breakdown.attr_total cl <> cl.res.Runner.elapsed)
        cells
    with
    | None ->
        verdict e "conservation" true "per-cause ns sum to elapsed virtual time in every cell"
    | Some cl ->
        verdict e "conservation" false
          (Printf.sprintf "%s/%s: %d ns attributed vs %d elapsed" (Runner.ds_name cl.kind)
             cl.config (Breakdown.attr_total cl) cl.res.Runner.elapsed)
  in
  let naive_rtt =
    match find Runner.Bpt "Naive" with
    | Some cl ->
        let dominant = List.for_all (fun (c, v) -> c = Obs.Attr.Rdma_rtt || v <= rtt cl) cl.attr in
        verdict e "naive_rtt_dominant" dominant
          (Printf.sprintf "naive BPT: rdma_rtt %.0f%% of op time"
             (100. *. float_of_int (rtt cl) /. float_of_int (max 1 (Breakdown.attr_total cl))))
    | None -> verdict e "naive_rtt_dominant" false "no naive BPT cell"
  in
  let rcb_shift =
    (* The batched multi-version B+ tree is the paper's batching winner
       (§6.2): the op log amortizes across the vput batch, so the
       majority of its time lands on local compute + media. *)
    match find Runner.Mv_bpt "RCB" with
    | Some cl ->
        let local =
          Breakdown.attr_ns cl Obs.Attr.Local_compute + Breakdown.attr_ns cl Obs.Attr.Nvm_media
        in
        verdict e "rcb_local_shift" (local > rtt cl)
          (Printf.sprintf "RCB MV-BPT: local_compute+nvm_media %d ns vs rdma_rtt %d ns" local
             (rtt cl))
    | None -> verdict e "rcb_local_shift" false "no RCB MV-BPT cell"
  in
  let rtt_collapse =
    (* Plain BPT keeps ~1 round trip per op under RCB (the signaled
       op-log append and below-threshold leaf reads), but the absolute
       RTT cost per op must still collapse several-fold vs Naive. *)
    match (find Runner.Bpt "Naive", find Runner.Bpt "RCB") with
    | Some n, Some r ->
        let per (cl : Breakdown.cell) =
          float_of_int (rtt cl) /. float_of_int (max 1 cl.res.Runner.ops)
        in
        verdict e "bpt_rtt_collapse"
          (per r < per n /. 3.)
          (Printf.sprintf "BPT rdma_rtt %.0f ns/op Naive -> %.0f ns/op RCB" (per n) (per r))
    | _ -> verdict e "bpt_rtt_collapse" false "missing BPT cells"
  in
  [ conservation; naive_rtt; rcb_shift; rtt_collapse ]

let faultsweep_checks e (cells : Faultsweep.cell list) =
  let consistent =
    match List.find_opt (fun (c : Faultsweep.cell) -> c.bad_reads > 0) cells with
    | None -> verdict e "zero_bad_reads" true "every written key read back intact at every drop rate"
    | Some c ->
        verdict e "zero_bad_reads" false
          (Printf.sprintf "%s drop=%.2f: %d read-back mismatches" c.config c.drop c.bad_reads)
  in
  let configs = List.sort_uniq compare (List.map (fun (c : Faultsweep.cell) -> c.config) cells) in
  let per_config f =
    List.for_all
      (fun cfg ->
        f
          (List.sort
             (fun (a : Faultsweep.cell) b -> compare a.drop b.drop)
             (List.filter (fun (c : Faultsweep.cell) -> c.config = cfg) cells)))
      configs
  in
  let monotone =
    (* Throughput may only degrade as loss rises; 5% slack absorbs the
       jitter the loss schedule itself injects into batching decisions. *)
    let rec chain = function
      | (a : Faultsweep.cell) :: (b :: _ as rest) -> b.kops <= a.kops *. 1.05 && chain rest
      | _ -> true
    in
    verdict e "throughput_degrades_monotonically" (per_config chain)
      (String.concat "; "
         (List.map
            (fun (c : Faultsweep.cell) -> Printf.sprintf "%s@%.2f=%.1f" c.config c.drop c.kops)
            cells))
  in
  let retries_grow =
    let ok =
      per_config (fun cs ->
          match (cs, List.rev cs) with
          | (zero : Faultsweep.cell) :: _, (top : Faultsweep.cell) :: _ ->
              zero.retries = 0 && top.retries > 0
          | _ -> false)
    in
    verdict e "retries_track_drop_rate" ok
      "faults off retries nothing; the top drop rate must retry (seeded, so counts reproduce)"
  in
  [ consistent; monotone; retries_grow ]

(* -- the table --------------------------------------------------------------- *)

(* [run name scale]: the entry's name names its reports and its checks. *)
let entry name doc run = { name; doc; run = run name }

(* One report under the entry's name, without checks. *)
let report f name s = ([ (name, f s) ], [])
let sized f = report (fun s -> f s.sizes)

(* One report plus the checks computed from the values it was rendered from. *)
let checked f checks name s =
  let r, values = f s in
  ([ (name, r) ], checks name values)

let all =
  [
    entry "table2" "Table 2: allocator comparison" (sized Experiments.table2);
    (* Table 1 is read from Table 3's runs, so it is reported here. *)
    entry "table3"
      "Tables 1 and 3: RDMA verbs and wire bytes per operation, and overall performance"
      (fun name s ->
        let t1, t3, rows = Experiments.table3 s.sizes in
        ([ ("table1", t1); (name, t3) ], table3_checks name rows));
    entry "fig6" "Figure 6: throughput vs batch size" (sized Experiments.fig6);
    entry "fig7" "Figure 7: throughput vs cache size" (sized Experiments.fig7);
    entry "fig8" "Figure 8: reader scalability (SWMR)"
      (report (fun s -> Multiclient.fig8 ~preload:s.sizes.preload ~duration:s.duration));
    entry "fig9" "Figure 9: multiple structures per back-end"
      (report (fun s -> Multiclient.fig9 ~preload:(s.sizes.preload / 2) ~duration:s.duration));
    entry "fig10" "Figure 10: partitioning across back-ends"
      (report (fun s -> Multiclient.fig10 ~preload:(s.sizes.preload / 2) ~ops:(s.sizes.ops / 2)));
    entry "fig11" "Figure 11: CPU utilization"
      (report (fun s -> Multiclient.fig11 ~preload:s.sizes.preload ~ops:(s.sizes.ops * 2)));
    entry "fig12" "Figure 12: skewed (Zipf) workloads" (sized Experiments.fig12);
    entry "fig13" "Figure 13: industry-trace workload mixes" (sized Experiments.fig13);
    entry "cache_policy" "In-text §4.4: LRU vs RR vs hybrid replacement"
      (sized Experiments.cache_policy);
    entry "lock_bench" "In-text §6.3: lock ping-point test"
      (report (fun s -> Multiclient.lock_bench ~duration:s.duration));
    entry "contention" "Lock-contention scaling: N writers racing for one shared structure"
      (checked
         (fun s -> Multiclient.contention ~preload:(s.sizes.preload / 2) ~duration:s.duration)
         contention_checks);
    entry "ablation" "Ablations of DESIGN.md design choices" (sized Experiments.ablation);
    entry "sensitivity" "Extension: latency sensitivity of the optimization stack"
      (checked (fun s -> Experiments.sensitivity s.sizes) sensitivity_checks);
    entry "latency" "Extension: per-operation latency percentiles"
      (checked (fun s -> Experiments.latency s.sizes) latency_checks);
    entry "ycsb" "Extension: YCSB core workloads A/B/C/D/F" (sized Experiments.ycsb);
    entry "breakdown" "Latency attribution: where each configuration's virtual time goes"
      (fun name s ->
        let cells = Breakdown.default_cells ~preload:s.sizes.preload ~ops:s.sizes.ops in
        ( [ (name, Breakdown.table cells); (name ^ "_resources", Breakdown.resource_table cells) ],
          breakdown_checks name cells ));
    entry "faultsweep"
      "Transient faults: throughput, retries and read-back integrity vs drop rate"
      (checked
         (fun s ->
           let cells =
             Faultsweep.default_cells ~preload:(s.sizes.preload / 2) ~ops:(s.sizes.ops / 2)
           in
           (Faultsweep.table cells, cells))
         faultsweep_checks);
  ]
