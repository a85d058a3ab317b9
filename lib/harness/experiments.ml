(** Single-client experiments: Tables 1–3, Figures 6/7/12/13, the
    §4.4 cache-policy study and the design-choice ablations. Multi-client
    experiments (Figures 8–11, the §6.3 lock test) live in
    {!Multiclient}. *)

open Asym_sim
open Asym_core

type scale = {
  preload : int;
  ops : int;
  subscribers : int;  (* TATP *)
  accounts : int;  (* SmallBank *)
}

let quick = { preload = 4000; ops = 4000; subscribers = 600; accounts = 2000 }
let full = { preload = 20000; ops = 20000; subscribers = 3000; accounts = 10000 }

let lat = Latency.default

(* One fresh rig per cell keeps experiments independent. *)
let rig () = Runner.make_rig lat

(* One Table-3-style cell at scale [sc] on a fresh rig. *)
let asym_cell ?cache_pct ?put_ratio ?dist sc cfg kind =
  Runner.run_asym ?cache_pct ?put_ratio ?dist ~rig:(rig ()) ~cfg ~kind ~preload:sc.preload
    ~ops:sc.ops ()

let asym_kops ?cache_pct ?put_ratio ?dist sc cfg kind =
  (asym_cell ?cache_pct ?put_ratio ?dist sc cfg kind).Runner.kops

module Tatp_c = Asym_apps.Tatp.Make (Client)
module Tatp_l = Asym_apps.Tatp.Make (Asym_baseline.Local_store)
module Bank_c = Asym_apps.Smallbank.Make (Client)
module Bank_l = Asym_apps.Smallbank.Make (Asym_baseline.Local_store)
module Bst_c = Asym_structs.Pbst.Make (Client)

(* ------------------------------------------------------------------ *)
(* Application runners                                                  *)
(* ------------------------------------------------------------------ *)

let tatp_opts = Asym_structs.Ds_intf.locked_options

(* KOPS of [sc.ops] application transactions on [clock]. *)
let txn_kops ~clock ~sc txn =
  let kops, _, _ = Runner.measure ~clock ~ops:sc.ops (fun _ -> txn ()) in
  kops

let run_tatp_asym ?(cache_pct = 0.10) ~cfg ~sc () =
  let attach c = Tatp_c.attach ~opts:tatp_opts c ~name:"tatp" in
  let c =
    Runner.loaded_client (rig ()) ~name:"tatp" ~cache_pct cfg ~load:(fun pre ->
        Tatp_c.populate (attach pre) (Asym_util.Rng.create ~seed:3L)
          ~subscribers:sc.subscribers)
  in
  let app = attach c and rng = Asym_util.Rng.create ~seed:4L in
  txn_kops ~clock:(Client.clock c) ~sc (fun () ->
      Tatp_c.run_random app rng ~subscribers:sc.subscribers ~mix:Asym_apps.Tatp.default_mix)

let run_tatp_sym ~cfg ~sc () =
  let s = Runner.local_store ~name:"tatp" ~cfg lat in
  let app = Tatp_l.attach ~opts:tatp_opts s ~name:"tatp" in
  Tatp_l.populate app (Asym_util.Rng.create ~seed:3L) ~subscribers:sc.subscribers;
  let rng = Asym_util.Rng.create ~seed:4L in
  txn_kops ~clock:(Asym_baseline.Local_store.clock s) ~sc (fun () ->
      Tatp_l.run_random app rng ~subscribers:sc.subscribers ~mix:Asym_apps.Tatp.default_mix)

let run_bank_asym ?(cache_pct = 0.10) ?cust_gen ~cfg ~sc () =
  let c =
    Runner.loaded_client (rig ()) ~name:"bank" ~cache_pct cfg ~load:(fun pre ->
        ignore (Bank_c.create pre ~name:"bank" ~accounts:sc.accounts ~initial_balance:1000L))
  in
  let app = Bank_c.attach c ~name:"bank" and rng = Asym_util.Rng.create ~seed:5L in
  txn_kops ~clock:(Client.clock c) ~sc (fun () ->
      Bank_c.run_random ?cust_gen app rng ~accounts:sc.accounts
        ~mix:Asym_apps.Smallbank.default_mix)

let run_bank_sym ~cfg ~sc () =
  let s = Runner.local_store ~name:"bank" ~cfg lat in
  let app = Bank_l.create s ~name:"bank" ~accounts:sc.accounts ~initial_balance:1000L in
  let rng = Asym_util.Rng.create ~seed:5L in
  txn_kops ~clock:(Asym_baseline.Local_store.clock s) ~sc (fun () ->
      Bank_l.run_random app rng ~accounts:sc.accounts ~mix:Asym_apps.Smallbank.default_mix)

(* ------------------------------------------------------------------ *)
(* Table 2 — allocator comparison                                       *)
(* ------------------------------------------------------------------ *)

(* Allocation sizes "32 bytes to 128 bytes" (§5.2). *)
let alloc_sizes = [| 32; 48; 64; 96; 128 |]

let mops n elapsed = if elapsed = 0 then 0.0 else float_of_int n /. Simtime.to_sec elapsed /. 1e6

(* Time [n] allocations, then [n] frees, on [clock]: (alloc, free) MOPS. *)
let alloc_free ~clock n ~alloc ~free =
  let _, ta, _ = Runner.measure ~clock ~ops:n alloc in
  let _, tf, _ = Runner.measure ~clock ~ops:n free in
  (mops n ta, mops n tf)

(* Volatile DRAM allocator (the Glibc row): pure local latency. *)
let table2_glibc n =
  let clock = Clock.create () in
  alloc_free ~clock n
    ~alloc:(fun _ -> Clock.advance clock lat.Latency.dram_ns)
    ~free:(fun _ -> Clock.advance clock (lat.Latency.dram_ns / 3))

(* Single-node persistent allocator (the Pmem/NVML row): every alloc and
   free persists a bitmap line and fences. *)
let table2_pmem n =
  let clock = Clock.create () in
  let persist _ =
    Clock.advance clock (Latency.nvm_write_cost lat 8 + lat.Latency.persist_fence_ns)
  in
  alloc_free ~clock n ~alloc:persist ~free:persist

(* Remote allocation through the management RPC only: every alloc/free is
   one RFP round on a raw connection. *)
let table2_rpc n =
  let bk =
    Backend.create ~name:"alloc-bk" ~max_sessions:2 ~memlog_cap:(1024 * 1024)
      ~oplog_cap:(512 * 1024) ~slab_size:128 ~capacity:(64 * 1024 * 1024) lat
  in
  let clk = Clock.create ~name:"alloc" () in
  let conn =
    Asym_rdma.Verbs.connect ~client:clk ~remote_nic:(Backend.nic bk)
      ~remote_mem:(Backend.device bk) lat
  in
  let addrs = Array.make n 0 in
  alloc_free ~clock:clk n
    ~alloc:(fun i ->
      match Backend.rpc bk ~conn ~session:None (Rpc_msg.Malloc { slabs = 1 }) with
      | Rpc_msg.R_addr a -> addrs.(i) <- a
      | _ -> failwith "table2: rpc alloc failed")
    ~free:(fun i ->
      let free = Rpc_msg.Free { addr = addrs.(i); slabs = 1 } in
      ignore (Backend.rpc bk ~conn ~session:None free))

let table2 sc =
  let n = max 2000 (sc.ops / 2) in
  let t = Report.create ~title:"Table 2: allocator comparison (MOPS)"
      ~header:[ "Allocator"; "Alloc"; "Free" ]
      ~notes:
        [
          "paper: Glibc 21.0/57.0, Pmem 1.42/1.38, RPC 0.33/0.88, two-tier(128B) 1.33/2.41, \
           two-tier(1024B) 6.42/13.90";
        ]
      ()
  in
  let ga, gf = table2_glibc n in
  Report.add_row t [ "Glibc (volatile DRAM)"; Report.mops ga; Report.mops gf ];
  let pa, pf = table2_pmem n in
  Report.add_row t [ "Pmem (local persistent)"; Report.mops pa; Report.mops pf ];
  let ra, rf = table2_rpc n in
  Report.add_row t [ "RPC allocator"; Report.mops ra; Report.mops rf ];
  (* Two-tier allocator at the two slab sizes of the paper. *)
  let two_tier slab_size =
    let bk =
      Backend.create ~name:"alloc-bk" ~max_sessions:4 ~memlog_cap:(1024 * 1024)
        ~oplog_cap:(512 * 1024) ~slab_size ~capacity:(64 * 1024 * 1024) lat
    in
    let clk = Clock.create ~name:"alloc" () in
    let c = Client.connect ~name:"alloc" (Client.r ()) bk ~clock:clk in
    let rng = Asym_util.Rng.create ~seed:2L in
    let sizes = Array.init n (fun _ -> Asym_util.Rng.choose rng alloc_sizes) in
    let addrs = Array.make n 0 in
    alloc_free ~clock:clk n
      ~alloc:(fun i -> addrs.(i) <- Client.malloc c sizes.(i))
      ~free:(fun i -> Client.free c addrs.(i) ~len:sizes.(i))
  in
  let a128, f128 = two_tier 128 in
  Report.add_row t [ "Two-tier (slab 128B)"; Report.mops a128; Report.mops f128 ];
  let a1k, f1k = two_tier 1024 in
  Report.add_row t [ "Two-tier (slab 1024B)"; Report.mops a1k; Report.mops f1k ];
  t

(* ------------------------------------------------------------------ *)
(* Tables 1 and 3 — wire cost and overall performance                   *)
(* ------------------------------------------------------------------ *)

type table3_row = {
  bench : string;
  symmetric : float;
  symmetric_b : float option;
  naive : float;
  r : float;
  rc : float option;
  rcb : float option;
}

(* Paper Table 1 counts network round trips per operation; here every
   asymmetric structure cell of Table 3 adds its measured verbs/op and
   payload bytes/op to Table 1 as it completes, from the Verbs counters
   surfaced through {!Runner.result}. *)
let table3 sc =
  let t1 =
    Report.create ~title:"Table 1: RDMA wire cost per operation (100% write)"
      ~header:[ "Benchmark"; "Config"; "KOPS"; "verbs/op"; "bytes/op" ]
      ~notes:
        [
          "verbs/op counts posted verbs including unsignaled writes and atomics";
          "bytes/op is payload on the wire (headers excluded), per measured operation";
        ]
      ()
  in
  let t =
    Report.create ~title:"Table 3: performance comparison (KOPS), 100% write, 1 FE : 1 BE"
      ~header:[ "Benchmark"; "Symmetric"; "Symmetric-B"; "Naive"; "R"; "RC"; "RCB" ]
      ~notes:
        [
          "R: log reproducing; C: cache sized to 10% of used NVM; B: batch 1024";
          "missing cells follow the paper: O(1) structures take no benefit from batching; \
           queue/stack combine batch+cache";
        ]
      ()
  in
  let module L = Asym_baseline.Local_store in
  let sym cfg kind = (Runner.run_sym ~lat ~cfg ~kind ~preload:sc.preload ~ops:sc.ops ()).Runner.kops in
  let bank =
    let symmetric = run_bank_sym ~cfg:L.symmetric ~sc () in
    let naive = run_bank_asym ~cfg:(Client.naive ()) ~sc () in
    let r = run_bank_asym ~cfg:(Client.r ()) ~sc () in
    let rc = run_bank_asym ~cfg:(Client.rc ()) ~sc () in
    { bench = "TX(SmallBank)"; symmetric; symmetric_b = None; naive; r; rc = Some rc; rcb = None }
  in
  let tatp =
    let symmetric = run_tatp_sym ~cfg:L.symmetric ~sc () in
    let symmetric_b = run_tatp_sym ~cfg:L.symmetric_b ~sc () in
    let naive = run_tatp_asym ~cfg:(Client.naive ()) ~sc () in
    let r = run_tatp_asym ~cfg:(Client.r ()) ~sc () in
    let rc = run_tatp_asym ~cfg:(Client.rc ()) ~sc () in
    let rcb = run_tatp_asym ~cfg:(Client.rcb ()) ~sc () in
    { bench = "TX(TATP)"; symmetric; symmetric_b = Some symmetric_b; naive; r; rc = Some rc;
      rcb = Some rcb }
  in
  let per_op n r = float_of_int n /. float_of_int r.Runner.ops in
  let asym cfg kind =
    let r = asym_cell sc cfg kind in
    Report.add_row t1
      [
        Runner.ds_name kind;
        Client.config_name cfg;
        Report.kops r.Runner.kops;
        Printf.sprintf "%.2f" (per_op r.Runner.verbs r);
        Printf.sprintf "%.1f" (per_op r.Runner.wire_bytes r);
      ];
    r.Runner.kops
  in
  (* A structure row: the cache column is absent for queue/stack (whose
     RCB cell is {!Runner.fifo_rcb}), the batch column for the hash table. *)
  let structure kind =
    let symmetric = sym L.symmetric kind in
    let symmetric_b = if kind = Runner.Hash_table then None else Some (sym L.symmetric_b kind) in
    let naive = asym (Client.naive ()) kind in
    let r = asym (Client.r ()) kind in
    let rc = if Runner.is_fifo kind then None else Some (asym (Client.rc ()) kind) in
    let rcb =
      if kind = Runner.Hash_table then None
      else Some (asym (if Runner.is_fifo kind then Runner.fifo_rcb () else Client.rcb ()) kind)
    in
    { bench = Runner.ds_name kind; symmetric; symmetric_b; naive; r; rc; rcb }
  in
  let rows = bank :: tatp :: List.map structure Runner.all_ds in
  let cell = function Some v -> Report.kops v | None -> "-" in
  List.iter
    (fun w ->
      Report.add_row t
        [ w.bench; Report.kops w.symmetric; cell w.symmetric_b; Report.kops w.naive; Report.kops w.r;
          cell w.rc; cell w.rcb ])
    rows;
  (t1, t, rows)

(* ------------------------------------------------------------------ *)
(* Figure 6 — batching sweep                                            *)
(* ------------------------------------------------------------------ *)

let batch_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

let fig6 sc =
  let t =
    Report.create ~title:"Figure 6: throughput (KOPS) vs batch size"
      ~header:("Benchmark" :: List.map string_of_int batch_sizes)
      ~notes:
        [
          "6a (lock-free): MV-BST, MV-BPT, SkipList; 6b (lock-based): BST, BPT, TATP";
          "BST/BPT use sorted vector writes (Algorithm 3) at the batch size";
        ]
      ()
  in
  let batched_cfg b = if b <= 1 then Client.rc () else Client.rcb ~batch_size:b () in
  let plain kind b = asym_kops sc (batched_cfg b) kind in
  let vector kind b =
    if b = 1 then plain kind 1
    else begin
      let nm = Runner.ds_name kind in
      let c =
        Runner.loaded_client (rig ()) ~name:nm ~cache_pct:0.10 (Client.rcb ~batch_size:2 ())
          ~load:(fun pre ->
            Runner.preload_instance
              (Runner.client_instance kind pre ~name:nm)
              ~fifo:false ~n:sc.preload ~value_size:64)
      in
      let inst = Runner.client_instance kind c ~name:nm in
      let vput = match inst.Runner.vput with Some f -> f | None -> assert false in
      let rng = Asym_util.Rng.create ~seed:11L in
      let key () = Int64.of_int (Asym_util.Rng.int rng (sc.preload * 4)) in
      let clock = Client.clock c in
      (* Warm the cache and the adaptive level threshold. *)
      for _ = 1 to sc.ops / 2 do
        let k = key () in
        inst.Runner.put k (Runner.value_of k)
      done;
      Client.flush c;
      let chunks = max 1 (sc.ops / b) in
      let _, elapsed, _ =
        Runner.measure ~clock ~ops:chunks (fun _ ->
            vput
              (List.init b (fun _ ->
                   let k = key () in
                   (k, Runner.value_of k))))
      in
      Runner.kops_of (chunks * b) elapsed
    end
  in
  let tatp b = run_tatp_asym ~cfg:(batched_cfg b) ~sc () in
  let row name f = Report.add_row t (name :: List.map (fun b -> Report.kops (f b)) batch_sizes) in
  row "MV-BST" (plain Runner.Mv_bst);
  row "MV-BPT" (plain Runner.Mv_bpt);
  row "SkipList" (plain Runner.Skip_list);
  row "BST (vector)" (vector Runner.Bst);
  row "BPT (vector)" (vector Runner.Bpt);
  row "TATP" tatp;
  t

(* ------------------------------------------------------------------ *)
(* Figure 7 — cache-size sweep                                          *)
(* ------------------------------------------------------------------ *)

let cache_pcts = [ 0.01; 0.05; 0.10; 0.20 ]

let fig7 sc =
  let t =
    Report.create ~title:"Figure 7: throughput (KOPS) vs cache size (% of used NVM)"
      ~header:[ "Benchmark"; "1%"; "5%"; "10%"; "20%" ]
      ()
  in
  let ds kind =
    Report.add_row t
      (Runner.ds_name kind
      :: List.map
           (fun pct -> Report.kops (asym_kops ~cache_pct:pct sc (Client.rcb ()) kind))
           cache_pcts)
  in
  List.iter ds [ Runner.Bpt; Runner.Bst; Runner.Skip_list; Runner.Mv_bpt; Runner.Mv_bst ];
  Report.add_row t
    ("TATP"
    :: List.map
         (fun pct -> Report.kops (run_tatp_asym ~cache_pct:pct ~cfg:(Client.rcb ()) ~sc ()))
         cache_pcts);
  Report.add_row t
    ("HashTable"
    :: List.map
         (fun pct ->
           Report.kops (asym_kops ~cache_pct:pct sc (Client.rc ()) Runner.Hash_table))
         cache_pcts);
  Report.add_row t
    ("SmallBank"
    :: List.map
         (fun pct -> Report.kops (run_bank_asym ~cache_pct:pct ~cfg:(Client.rc ()) ~sc ()))
         cache_pcts);
  t

(* ------------------------------------------------------------------ *)
(* Figure 12 — skewed workloads                                         *)
(* ------------------------------------------------------------------ *)

let fig12 sc =
  let dists =
    [
      ("Uniform", Asym_workload.Ycsb.Uniform);
      ("Zipf .5", Asym_workload.Ycsb.Zipfian 0.5);
      ("Zipf .9", Asym_workload.Ycsb.Zipfian 0.9);
      ("Zipf .99", Asym_workload.Ycsb.Zipfian 0.99);
    ]
  in
  let t =
    Report.create ~title:"Figure 12: throughput (KOPS) under skewed workloads (50% put / 50% get)"
      ~header:("Benchmark" :: List.map fst dists)
      ()
  in
  let ds kind =
    Report.add_row t
      (Runner.ds_name kind
      :: List.map
           (fun (_, dist) ->
             Report.kops (asym_kops ~dist ~put_ratio:0.5 sc (Client.rcb ()) kind))
           dists)
  in
  List.iter ds [ Runner.Bpt; Runner.Bst; Runner.Skip_list; Runner.Mv_bpt; Runner.Mv_bst; Runner.Hash_table ];
  Report.add_row t
    ("SmallBank"
    :: List.map
         (fun (_, dist) ->
           let rng = Asym_util.Rng.create ~seed:21L in
           let cust_gen =
             match dist with
             | Asym_workload.Ycsb.Uniform -> None
             | Asym_workload.Ycsb.Zipfian theta ->
                 let z = Asym_util.Zipf.create ~theta ~n:sc.accounts rng in
                 Some (fun () -> Int64.of_int (Asym_util.Zipf.next_scrambled z))
           in
           Report.kops (run_bank_asym ?cust_gen ~cfg:(Client.rc ()) ~sc ()))
         dists);
  t

(* ------------------------------------------------------------------ *)
(* Figure 13 — industry-trace workload mixes                            *)
(* ------------------------------------------------------------------ *)

let fig13 sc =
  let kv_mixes = [ ("100%put", 1.0); ("50/50", 0.5); ("75%put", 0.75); ("10%put", 0.1); ("100%get", 0.0) ] in
  let fifo_mixes = [ ("100%push", 1.0); ("50/50", 0.5); ("100%pop", 0.0) ] in
  let t =
    Report.create
      ~title:"Figure 13: throughput (KOPS) on the industry trace (power-law keys, 64B-8KB values)"
      ~header:[ "Benchmark"; "Mix"; "Naive"; "R"; "RC" ]
      ~notes:[ "queue/stack configs: Naive / R / R+B (batch+cache combine for FIFO structures)" ]
      ()
  in
  let run kind cfg ratio =
    (Runner.run_asym_trace ~rig:(rig ()) ~cfg ~kind
       ~preload:(if Runner.is_fifo kind then max sc.preload sc.ops else sc.preload)
       ~ops:sc.ops ~put_ratio:ratio ())
      .Runner.kops
  in
  let kv kind =
    List.iter
      (fun (label, ratio) ->
        Report.add_row t
          [
            Runner.ds_name kind;
            label;
            Report.kops (run kind (Client.naive ()) ratio);
            Report.kops (run kind (Client.r ()) ratio);
            Report.kops (run kind (Client.rc ()) ratio);
          ])
      kv_mixes
  in
  let fifo kind =
    List.iter
      (fun (label, ratio) ->
        Report.add_row t
          [
            Runner.ds_name kind;
            label;
            Report.kops (run kind (Client.naive ()) ratio);
            Report.kops (run kind (Client.r ()) ratio);
            Report.kops (run kind (Runner.fifo_rcb ()) ratio);
          ])
      fifo_mixes
  in
  List.iter kv [ Runner.Bst; Runner.Mv_bst; Runner.Bpt; Runner.Mv_bpt; Runner.Skip_list; Runner.Hash_table ];
  List.iter fifo [ Runner.Queue; Runner.Stack ];
  t

(* ------------------------------------------------------------------ *)
(* Operation latency (extension beyond the paper)                       *)
(* ------------------------------------------------------------------ *)

(* The paper reports throughput only; the simulation also exposes per-
   operation virtual latency, which shows where each configuration's
   time goes (network round trips vs cache hits vs batched flushes). *)
let latency sc =
  let t =
    Report.create ~title:"Per-operation latency (us, virtual), 100% write (extension)"
      ~header:[ "Benchmark"; "Config"; "Mean"; "p50"; "p99" ]
      ~notes:[ "p99 spikes under RCB are the batched rnvm_tx_write flushes" ]
      ()
  in
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun cfg -> (kind, Client.config_name cfg, asym_cell sc cfg kind))
          [ Client.naive (); Client.r (); Client.rc (); Client.rcb () ])
      [ Runner.Hash_table; Runner.Bpt; Runner.Queue ]
  in
  List.iter
    (fun (kind, config, r) ->
      Report.add_row t
        [
          Runner.ds_name kind;
          config;
          Printf.sprintf "%.2f" r.Runner.lat_mean_us;
          Printf.sprintf "%.2f" r.Runner.lat_p50_us;
          Printf.sprintf "%.2f" r.Runner.lat_p99_us;
        ])
    rows;
  (t, rows)

(* ------------------------------------------------------------------ *)
(* YCSB core workloads (extension beyond the paper)                     *)
(* ------------------------------------------------------------------ *)

let ycsb sc =
  let t =
    Report.create ~title:"YCSB core workloads A/B/C/D/F (KOPS, AsymNVM-RC) (extension)"
      ~header:[ "Benchmark"; "A 50/50 zipf"; "B 5/95 zipf"; "C read zipf"; "D 5/95 unif"; "F 50/50 zipf" ]
      ()
  in
  let cell kind preset =
    let dist, put_ratio =
      match preset with
      | Asym_workload.Ycsb.A | Asym_workload.Ycsb.F -> (Asym_workload.Ycsb.Zipfian 0.99, 0.5)
      | Asym_workload.Ycsb.B -> (Asym_workload.Ycsb.Zipfian 0.99, 0.05)
      | Asym_workload.Ycsb.C -> (Asym_workload.Ycsb.Zipfian 0.99, 0.0)
      | Asym_workload.Ycsb.D -> (Asym_workload.Ycsb.Uniform, 0.05)
    in
    asym_kops ~dist ~put_ratio sc (Client.rc ()) kind
  in
  List.iter
    (fun kind ->
      Report.add_row t
        (Runner.ds_name kind
        :: List.map
             (fun p -> Report.kops (cell kind p))
             Asym_workload.Ycsb.[ A; B; C; D; F ]))
    [ Runner.Hash_table; Runner.Bpt; Runner.Skip_list ];
  t

(* ------------------------------------------------------------------ *)
(* Sensitivity analysis (extension beyond the paper)                    *)
(* ------------------------------------------------------------------ *)

(* The paper frames the whole design around the RDMA-RTT-to-NVM-latency
   gap (Â§3.2). Sweep both and watch how naive direct access and the full
   optimization stack respond. *)
let sensitivity sc =
  let t =
    Report.create
      ~title:"Sensitivity: BPT throughput (KOPS) vs hardware latency (extension)"
      ~header:[ "Hardware"; "Naive"; "RCB"; "RCB/Naive" ]
      ~notes:
        [
          "RCB holds a ~2.6-2.8x advantage across the whole RTT range (both configurations \
           keep some per-operation round trips) and widens it as the NVM media slows, \
           because cached reads skip the media entirely";
        ]
      ()
  in
  let cell lat' label =
    let run cfg =
      (Runner.run_asym ~rig:(Runner.make_rig lat') ~cfg ~kind:Runner.Bpt ~preload:sc.preload
         ~ops:sc.ops ())
        .Runner.kops
    in
    let naive = run (Client.naive ()) in
    let rcb = run (Client.rcb ()) in
    Report.add_row t
      [ label; Report.kops naive; Report.kops rcb; Report.ratio (rcb /. naive) ];
    (label, naive, rcb)
  in
  let rtts =
    List.map
      (fun rtt_us ->
        cell
          { lat with Latency.rdma_rtt_ns = rtt_us * 1000; rdma_atomic_ns = (rtt_us * 1000) + 100 }
          (Printf.sprintf "RDMA RTT %d us" rtt_us))
      [ 1; 2; 3; 5; 10 ]
  in
  let media =
    List.map
      (fun (r, w) ->
        cell
          { lat with Latency.nvm_read_ns = r; nvm_write_ns = w }
          (Printf.sprintf "NVM %d/%d ns" r w))
      [ (100, 50); (300, 100); (600, 200); (1200, 400) ]
  in
  (t, rtts @ media)

(* ------------------------------------------------------------------ *)
(* §4.4 — cache replacement policy study                                *)
(* ------------------------------------------------------------------ *)

let cache_policy sc =
  let t =
    Report.create ~title:"Cache policy study (§4.4): Zipf(.99) reads, choose-set 32"
      ~header:[ "Policy"; "Miss ratio"; "Throughput (KOPS)" ]
      ~notes:[ "paper: RR 62.7% miss, Hybrid 29.2%, Hybrid ~ LRU miss with ~27.5% higher tput" ]
      ()
  in
  List.iter
    (fun policy ->
      (* 64-byte pages: key/value items are the caching granularity for
         the hash table (§8.2). *)
      let cfg = { (Client.rc ()) with Client.cache_policy = policy; Client.page_size = 64 } in
      let res =
        asym_cell ~dist:(Asym_workload.Ycsb.Zipfian 0.99) ~put_ratio:0.0 ~cache_pct:0.02
          { sc with ops = 2 * sc.ops } cfg Runner.Hash_table
      in
      let total = res.Runner.cache_hits + res.Runner.cache_misses in
      let miss = if total = 0 then 0.0 else float_of_int res.Runner.cache_misses /. float_of_int total in
      Report.add_row t
        [ Cache.policy_name policy; Report.pct miss; Report.kops res.Runner.kops ])
    [ Cache.Rr; Cache.Lru; Cache.Hybrid ];
  t

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md design choices                                *)
(* ------------------------------------------------------------------ *)

let ablation sc =
  let t =
    Report.create ~title:"Ablations: individual design choices"
      ~header:[ "Ablation"; "Off (KOPS)"; "On (KOPS)"; "Speedup" ]
      ~notes:
        [
          "level caching shows parity here: with choose-set eviction the hot upper levels \
           survive cold-page traffic, and caching a cold page costs no extra virtual time - \
           the paper's 38% native-LRU penalty comes from eviction/bookkeeping costs this \
           model deliberately keeps small (see EXPERIMENTS.md)";
        ]
      ()
  in
  (* 1. §8.1 annulment: pop-after-push served from the write overlay. *)
  let annulment batch =
    let r = rig () in
    let cfg = { (Client.rcb ~batch_size:batch ()) with Client.oplog_signaled = false } in
    let c = Runner.fresh_client ~name:"st" r cfg in
    let inst = Runner.client_instance Runner.Stack c ~name:"st" in
    let clock = Client.clock c in
    let kops, _, _ =
      Runner.measure ~clock ~ops:sc.ops (fun i ->
          if i land 1 = 0 then inst.Runner.push (Runner.value_of (Int64.of_int i))
          else ignore (inst.Runner.pop ()))
    in
    kops
  in
  let off = annulment 1 and on_ = annulment 256 in
  Report.add_row t
    [ "stack push/pop annulment (batching)"; Report.kops off; Report.kops on_; Report.ratio (on_ /. off) ];
  (* 2. §4.3 op-log pointer on the wire. *)
  let wire opt =
    asym_kops sc { (Client.rcb ()) with Client.pointer_wire_opt = opt } Runner.Bpt
  in
  let woff = wire false and won = wire true in
  Report.add_row t
    [ "op-log pointer wire optimization"; Report.kops woff; Report.kops won; Report.ratio (won /. woff) ];
  (* 3. §8.3 level-based caching vs caching every node ("native LRU").
     Measured on the BST — deep enough that a small cache cannot hold the
     lower levels, so pulling every node through it evicts the hot upper
     levels. *)
  let levels all =
    (* A deep tree and a cache that holds the upper levels but not the
       leaves: that is where the level hint pays. *)
    let c =
      Runner.loaded_client (rig ()) ~name:"bst" ~cache_pct:0.03 (Client.rcb ())
        ~load:(fun pre ->
          Runner.preload_instance
            (Runner.client_instance Runner.Bst pre ~name:"bst")
            ~fifo:false ~n:(sc.preload * 4) ~value_size:64)
    in
    let b = Bst_c.attach ~cache_all_levels:all c ~name:"bst" in
    let rng = Asym_util.Rng.create ~seed:31L in
    let key () = Int64.of_int (Asym_util.Rng.int rng (sc.preload * 16)) in
    (* Warm, then measure. *)
    for _ = 1 to sc.ops / 2 do
      ignore (Bst_c.find b ~key:(key ()))
    done;
    let kops, _, _ =
      Runner.measure ~clock:(Client.clock c) ~ops:sc.ops (fun _ ->
          let k = key () in
          Bst_c.put b ~key:k ~value:(Runner.value_of k))
    in
    kops
  in
  let loff = levels true and lon = levels false in
  Report.add_row t
    [ "adaptive level caching (vs cache-all)"; Report.kops loff; Report.kops lon; Report.ratio (lon /. loff) ];
  (* 4. §4.2 transaction coalescing: R vs naive per-store writes, on the
     write-dominated queue where the effect is purest. *)
  let n = asym_kops sc (Client.naive ()) Runner.Queue in
  let rr = asym_kops sc (Client.r ()) Runner.Queue in
  Report.add_row t
    [ "memory-log tx coalescing (Queue: naive vs R)"; Report.kops n; Report.kops rr; Report.ratio (rr /. n) ];
  t
