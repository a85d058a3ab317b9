(** Shared machinery for the experiment harness: rig construction,
    catalog attach on both architectures, and single-client throughput
    runs. *)

open Asym_sim
open Asym_core
open Asym_structs

type ds_kind = Catalog.kind =
  | Queue
  | Stack
  | Hash_table
  | Skip_list
  | Bst
  | Bpt
  | Mv_bst
  | Mv_bpt

let ds_name = Catalog.label
let all_ds = Catalog.all
let is_fifo = Catalog.is_fifo

type instance = Catalog.instance = {
  put : int64 -> bytes -> unit;
  get : int64 -> bytes option;
  del : int64 -> bool;
  push : bytes -> unit;
  pop : unit -> bytes option;
  vput : ((int64 * bytes) list -> unit) option;
  cleanup : unit -> unit;
  register : Registry.t -> unit;
  dump : unit -> (int64 * bytes) list;
}

(* In the paper's evaluation the ordered index structures (SkipList, BST,
   BPT and TATP's trees) take the exclusive writer lock per operation;
   queue/stack/hash run single-writer without it; the MV structures
   synchronize via the root CAS. *)
let ds_opts ~shared kind : Ds_intf.options =
  { Ds_intf.shared; use_lock = List.mem kind [ Skip_list; Bst; Bpt ] }

module On_client = Catalog.Make (Client)
module On_local = Catalog.Make (Asym_baseline.Local_store)

let client_instance ?(shared = false) kind c ~name =
  On_client.attach ~opts:(ds_opts ~shared kind) ~nbuckets:16384 kind c ~name

let local_instance kind s ~name =
  On_local.attach ~opts:(ds_opts ~shared:false kind) ~nbuckets:16384 kind s ~name

(* -- rig ---------------------------------------------------------------- *)

type rig = { bk : Backend.t; lat : Latency.t }

let make_rig ?(name = "bk") ?(capacity = 192 * 1024 * 1024) ?(max_sessions = 8)
    ?(memlog_cap = 8 * 1024 * 1024) ?(mirrors = 0) lat =
  let bk =
    Backend.create ~name ~max_sessions ~memlog_cap ~oplog_cap:(2 * 1024 * 1024) ~slab_size:4096
      ~capacity lat
  in
  for i = 1 to mirrors do
    Backend.attach_mirror bk
      (Mirror.create
         ~name:(Printf.sprintf "%s.m%d" name i)
         ~kind:(if i = 1 then Mirror.Nvm_backed else Mirror.Ssd_backed)
         ~capacity lat)
  done;
  { bk; lat }

(* A client whose clock starts at the back-end's current horizon, so it
   does not queue behind hours of preload traffic. *)
let fresh_client ?(name = "fe") rig cfg =
  let clk = Clock.create ~name () in
  Clock.wait_until clk (Timeline.free_at (Backend.nic rig.bk));
  Clock.wait_until clk (Timeline.free_at (Backend.cpu rig.bk));
  Client.connect ~name cfg rig.bk ~clock:clk

(* The RCB configuration queue/stack cells use: their operation-log
   append is unsignaled. *)
let fifo_rcb () = { (Client.rcb ()) with Client.oplog_signaled = false }

(* The paper sizes the front-end cache as a fraction of the NVM actually
   used by the structure (10% in Table 3). *)
let used_bytes rig =
  Backend.used_slabs rig.bk * (Backend.layout rig.bk).Layout.slab_size

let with_cache_pct rig (cfg : Client.config) pct =
  if not cfg.Client.use_cache then cfg
  else
    let bytes = max (8 * 1024) (int_of_float (float_of_int (used_bytes rig) *. pct)) in
    { cfg with Client.cache_bytes = bytes }

(* -- preload -------------------------------------------------------------- *)

(* Zero-filled, not [Bytes.create]: uninitialized payload bytes made the
   stored media image (and every CRC over it) differ run to run, so a
   value written and rebuilt for comparison never matched. *)
let value_of ?(size = 64) key =
  let b = Bytes.make size '\000' in
  Bytes.set_int64_le b 0 key;
  b

let preload_instance inst ~fifo ~n ~value_size =
  if fifo then
    for i = 0 to n - 1 do
      inst.push (value_of ~size:value_size (Int64.of_int i))
    done
  else begin
    (* Preload keys spread over the whole measurement key space (stride 4
       over [0, 4n)) and inserted in shuffled order: a dense or ordered
       preload would degenerate the unbalanced BST into a list, and
       measurement-time inserts of fresh keys would all land on one
       spine. *)
    let keys = Array.init n (fun i -> Int64.of_int (4 * i)) in
    Asym_util.Rng.shuffle (Asym_util.Rng.create ~seed:1234L) keys;
    Array.iter (fun key -> inst.put key (value_of ~size:value_size key)) keys
  end;
  inst.cleanup ()

(* -- single-client measured run ------------------------------------------- *)

type result = {
  kops : float;
  ops : int;
  elapsed : Simtime.t;
  retries : int;
  cache_hits : int;
  cache_misses : int;
  verbs : int;  (* RDMA verbs posted during the measured window *)
  wire_bytes : int;  (* payload bytes those verbs moved *)
  lat_mean_us : float;
  lat_p50_us : float;
  lat_p99_us : float;
}

let kops_of ops elapsed =
  if elapsed <= 0 then 0.0 else float_of_int ops /. Simtime.to_sec elapsed /. 1000.0

(* The front-end counters a measured window reports as deltas. *)
type counters = { n_retries : int; n_hits : int; n_misses : int; n_verbs : int; n_bytes : int }

let counters c =
  let n_hits, n_misses = Client.cache_stats c in
  {
    n_retries = Client.read_retries c;
    n_hits;
    n_misses;
    n_verbs = Client.rdma_ops c;
    n_bytes = Client.rdma_bytes c;
  }

let no_counters = { n_retries = 0; n_hits = 0; n_misses = 0; n_verbs = 0; n_bytes = 0 }

let result ~ops ~before ~after (kops, elapsed, lats) =
  {
    kops;
    ops;
    elapsed;
    retries = after.n_retries - before.n_retries;
    cache_hits = after.n_hits - before.n_hits;
    cache_misses = after.n_misses - before.n_misses;
    verbs = after.n_verbs - before.n_verbs;
    wire_bytes = after.n_bytes - before.n_bytes;
    lat_mean_us = Asym_util.Stats.mean lats;
    lat_p50_us = Asym_util.Stats.percentile lats 50.0;
    lat_p99_us = Asym_util.Stats.percentile lats 99.0;
  }

let measure ~clock ~ops f =
  let t0 = Clock.now clock in
  for i = 0 to ops - 1 do
    f i
  done;
  let elapsed = Clock.now clock - t0 in
  (kops_of ops elapsed, elapsed)

(* Like {!measure} but also records each operation's virtual latency. *)
let measure_latencies ~clock ~ops f =
  let lats = Array.make (max 1 ops) 0.0 in
  let t0 = Clock.now clock in
  for i = 0 to ops - 1 do
    let s = Clock.now clock in
    f i;
    lats.(i) <- Simtime.to_us (Clock.now clock - s)
  done;
  let elapsed = Clock.now clock - t0 in
  (kops_of ops elapsed, elapsed, lats)

(* One operation against the facade. For key/value structures [put_ratio]
   selects between insert (PUT) and find (GET); for queue/stack it selects
   between push and pop. *)
let one_op inst ~fifo ~value_size ~put_ratio ~rng gen i =
  if fifo then begin
    if Asym_util.Rng.float rng < put_ratio then
      inst.push (value_of ~size:value_size (Int64.of_int i))
    else ignore (inst.pop ())
  end
  else if Asym_util.Rng.float rng < put_ratio then begin
    let k = Asym_workload.Ycsb.key gen in
    inst.put k (value_of ~size:value_size k)
  end
  else ignore (inst.get (Asym_workload.Ycsb.key gen))

(* Run [ops] operations of the given mix on an already attached instance,
   measuring virtual-time throughput on [clock]. *)
let drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace ~ops ~seed inst =
  let rng = Asym_util.Rng.create ~seed in
  let gen =
    Asym_workload.Ycsb.create ~value_size ~distribution:dist ~keyspace:(max 1 keyspace)
      ~put_ratio rng
  in
  measure_latencies ~clock ~ops (fun i -> one_op inst ~fifo ~value_size ~put_ratio ~rng gen i)

(* One Table-3-style cell on the AsymNVM architecture: preload through a
   throwaway client, then measure on a fresh client with the target
   configuration (cache sized as a fraction of the NVM in use). *)
let run_asym ?(shared = false) ?(value_size = 64) ?(cache_pct = 0.10) ?(put_ratio = 1.0)
    ?(dist = Asym_workload.Ycsb.Uniform) ?(seed = 99L) ?warmup ~rig ~cfg ~kind ~preload ~ops
    () =
  let fifo = is_fifo kind in
  let nm = ds_name kind in
  let pre = fresh_client ~name:(nm ^ ".preload") rig (Client.rcb ~batch_size:256 ()) in
  let pinst = client_instance kind pre ~name:nm in
  preload_instance pinst ~fifo ~n:preload ~value_size;
  let cfg = with_cache_pct rig cfg cache_pct in
  let c = fresh_client ~name:nm rig cfg in
  let inst = client_instance ~shared kind c ~name:nm in
  let clock = Client.clock c in
  (* Warm the cache and the adaptive level threshold before measuring. *)
  let warmup = match warmup with Some w -> w | None -> max 256 (ops / 2) in
  let _ =
    drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~ops:warmup
      ~seed:(Int64.add seed 1L) inst
  in
  let before = counters c in
  let m =
    (* When observability is on, each measured cell becomes one metrics
       phase: snapshot + reset, so counters are per-cell. *)
    Obs_report.phase
      (nm ^ "." ^ Client.config_name cfg)
      (fun () ->
        drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~ops ~seed inst)
  in
  result ~ops ~before ~after:(counters c) m

(* A Figure-13 style run: the synthetic industry trace (power-law keys,
   64 B - 8 KB values) instead of the fixed-size YCSB generator. *)
let run_asym_trace ?(cache_pct = 0.10) ?(seed = 7L) ~rig ~cfg ~kind ~preload ~ops ~put_ratio ()
    =
  let fifo = is_fifo kind in
  let nm = ds_name kind in
  let pre = fresh_client ~name:(nm ^ ".preload") rig (Client.rcb ~batch_size:256 ()) in
  let pinst = client_instance kind pre ~name:nm in
  preload_instance pinst ~fifo ~n:preload ~value_size:64;
  let cfg = with_cache_pct rig cfg cache_pct in
  let c = fresh_client ~name:nm rig cfg in
  let inst = client_instance kind c ~name:nm in
  let before = counters c in
  let rng = Asym_util.Rng.create ~seed in
  let tr =
    Asym_workload.Trace.create
      ~kind:(if fifo then `Fifo put_ratio else `Kv put_ratio)
      rng
  in
  let clock = Client.clock c in
  let m =
    Obs_report.phase
      (nm ^ ".trace." ^ Client.config_name cfg)
      (fun () ->
        measure_latencies ~clock ~ops (fun _ ->
            match Asym_workload.Trace.next tr with
            | Asym_workload.Trace.Push v -> inst.push v
            | Asym_workload.Trace.Pop -> ignore (inst.pop ())
            | Asym_workload.Trace.Put (k, v) -> inst.put k v
            | Asym_workload.Trace.Get k -> ignore (inst.get k)))
  in
  result ~ops ~before ~after:(counters c) m

(* The same cell on the symmetric baseline. *)
let run_sym ?(value_size = 64) ?(put_ratio = 1.0) ?(dist = Asym_workload.Ycsb.Uniform)
    ?(seed = 99L) ~lat ~cfg ~kind ~preload ~ops () =
  let fifo = is_fifo kind in
  let nm = ds_name kind in
  let clock = Clock.create ~name:("sym." ^ nm) () in
  let s = Asym_baseline.Local_store.create ~cfg lat ~clock in
  let inst = local_instance kind s ~name:nm in
  preload_instance inst ~fifo ~n:preload ~value_size;
  let m =
    Obs_report.phase (nm ^ ".sym") (fun () ->
        drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~ops ~seed inst)
  in
  result ~ops ~before:no_counters ~after:no_counters m
