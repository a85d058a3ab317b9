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

(* -- measured runs ------------------------------------------------------- *)

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

(* Time [ops] operations on [clock]: virtual-time throughput, the elapsed
   window, and each operation's virtual latency in microseconds. *)
let measure ~clock ~ops f =
  let lats = Array.make (max 1 ops) 0.0 in
  let t0 = Clock.now clock in
  for i = 0 to ops - 1 do
    let s = Clock.now clock in
    f i;
    lats.(i) <- Simtime.to_us (Clock.now clock - s)
  done;
  let elapsed = Clock.now clock - t0 in
  (kops_of ops elapsed, elapsed, lats)

(* The measured client of a cell: [load] fills the rig through a
   throwaway batched front-end, then the measured client connects with
   its cache sized to [cache_pct] of the NVM the load used. *)
let loaded_client rig ~name ~cache_pct ~load cfg =
  let pre = fresh_client ~name:(name ^ ".preload") rig (Client.rcb ~batch_size:256 ()) in
  load pre;
  Client.flush pre;
  fresh_client ~name rig (with_cache_pct rig cfg cache_pct)

(* The symmetric baseline's counterpart: a local store on a fresh clock. *)
let local_store ~name ~cfg lat =
  Asym_baseline.Local_store.create ~cfg lat ~clock:(Clock.create ~name:("sym." ^ name) ())

let align clocks =
  let t0 = Sched.makespan clocks in
  List.iter (fun c -> Clock.wait_until c t0) clocks;
  t0

(* Closed-loop multi-client window: from a common starting line [t0], each
   client repeats its [step] under the co-simulation until its clock
   passes [t0 + duration]. *)
let race ~duration racers =
  let t0 = align (List.map fst racers) in
  let deadline = t0 + duration in
  let counts = Array.make (List.length racers) 0 in
  Sched.run
    (List.mapi
       (fun i (clock, step) ->
         Sched.client ~clock ~run:(fun () ->
             while Clock.now clock < deadline do
               step ();
               counts.(i) <- counts.(i) + 1
             done))
       racers);
  (t0, Array.to_list counts)

(* One operation of the YCSB-style mix, as a closure over its own
   generator. For key/value structures [put_ratio] selects between insert
   (PUT) and find (GET); for queue/stack it selects between push and
   pop. *)
let mix_op ~fifo ~value_size ~put_ratio ~dist ~keyspace ~seed inst =
  let rng = Asym_util.Rng.create ~seed in
  let gen =
    Asym_workload.Ycsb.create ~value_size ~distribution:dist ~keyspace:(max 1 keyspace)
      ~put_ratio rng
  in
  fun i ->
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

(* The measured window of a cell on client [c]. When observability is on
   it becomes one metrics phase (snapshot + reset, so counters are
   per-cell). *)
let measured c ~phase ~ops op =
  let before = counters c in
  let m = Obs_report.phase phase (fun () -> measure ~clock:(Client.clock c) ~ops op) in
  result ~ops ~before ~after:(counters c) m

let preloaded rig ~kind ~preload ~value_size ~cache_pct cfg =
  let nm = ds_name kind in
  loaded_client rig ~name:nm ~cache_pct cfg ~load:(fun pre ->
      preload_instance (client_instance kind pre ~name:nm) ~fifo:(is_fifo kind) ~n:preload
        ~value_size)

(* One Table-3-style cell on the AsymNVM architecture: preload, warm the
   measurement client's cache and adaptive level threshold, measure. *)
let run_asym ?(shared = false) ?(value_size = 64) ?(cache_pct = 0.10) ?(put_ratio = 1.0)
    ?(dist = Asym_workload.Ycsb.Uniform) ?(seed = 99L) ?warmup ~rig ~cfg ~kind ~preload ~ops
    () =
  let c = preloaded rig ~kind ~preload ~value_size ~cache_pct cfg in
  let inst = client_instance ~shared kind c ~name:(ds_name kind) in
  let op =
    mix_op ~fifo:(is_fifo kind) ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) inst
  in
  let warmup = match warmup with Some w -> w | None -> max 256 (ops / 2) in
  ignore (measure ~clock:(Client.clock c) ~ops:warmup (op ~seed:(Int64.add seed 1L)));
  measured c ~phase:(ds_name kind ^ "." ^ Client.config_name cfg) ~ops (op ~seed)

(* A Figure-13 style run: the synthetic industry trace (power-law keys,
   64 B - 8 KB values) instead of the fixed-size YCSB generator. *)
let run_asym_trace ?(cache_pct = 0.10) ?(seed = 7L) ~rig ~cfg ~kind ~preload ~ops ~put_ratio ()
    =
  let c = preloaded rig ~kind ~preload ~value_size:64 ~cache_pct cfg in
  let inst = client_instance kind c ~name:(ds_name kind) in
  let tr =
    Asym_workload.Trace.create
      ~kind:(if is_fifo kind then `Fifo put_ratio else `Kv put_ratio)
      (Asym_util.Rng.create ~seed)
  in
  measured c ~phase:(ds_name kind ^ ".trace." ^ Client.config_name cfg) ~ops (fun _ ->
      match Asym_workload.Trace.next tr with
      | Asym_workload.Trace.Push v -> inst.push v
      | Asym_workload.Trace.Pop -> ignore (inst.pop ())
      | Asym_workload.Trace.Put (k, v) -> inst.put k v
      | Asym_workload.Trace.Get k -> ignore (inst.get k))

(* The same cell on the symmetric baseline. *)
let run_sym ?(value_size = 64) ?(put_ratio = 1.0) ?(dist = Asym_workload.Ycsb.Uniform)
    ?(seed = 99L) ~lat ~cfg ~kind ~preload ~ops () =
  let fifo = is_fifo kind in
  let nm = ds_name kind in
  let s = local_store ~name:nm ~cfg lat in
  let inst = local_instance kind s ~name:nm in
  preload_instance inst ~fifo ~n:preload ~value_size;
  let clock = Asym_baseline.Local_store.clock s in
  let m =
    Obs_report.phase (nm ^ ".sym") (fun () ->
        measure ~clock ~ops
          (mix_op ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~seed inst))
  in
  result ~ops ~before:no_counters ~after:no_counters m
