(* The three workloads. Each round builds a fresh rig, preloads and warms
   it (the set-up), then runs every front-end's pre-generated op stream as
   a closed loop (the measured window): a front-end issues its next op
   only when the previous one returned. Streams are generated from the
   seed before any round, so generator cost stays out of the window and
   every round replays the same inputs. *)

open Asym_sim
open Asym_core
module Rng = Asym_util.Rng
module Ycsb = Asym_workload.Ycsb
module Runner = Asym_harness.Runner
module P = Asym_structs.Pbptree.Make (Client)
module Pt = Asym_structs.Pbptree.Make (Tracer.Timed)

type t = Write_rcb | Read_zipf | Shared

let all =
  [ ("bpt-write-rcb", Write_rcb); ("bpt-read-zipf", Read_zipf); ("bpt-shared-2w4r", Shared) ]

(* Per round: [preload] keys, [warm] ops per front-end in the set-up and
   [ops] measured ops per front-end. *)
type size = { preload : int; warm : int; ops : int }

let size = function
  | Write_rcb -> { preload = 20_000; warm = 2_000; ops = 20_000 }
  | Read_zipf -> { preload = 20_000; warm = 10_000; ops = 150_000 }
  | Shared -> { preload = 20_000; warm = 1_000; ops = 5_000 }

let value_size = 64
let capacity = 96 * 1024 * 1024
let memlog_cap = 4 * 1024 * 1024
let ds_name = "bpt"
let shared_writers = 2
let shared_readers = 4

(* -- inputs ---------------------------------------------------------------------- *)

(* [vals.(i)] is what op [i] puts ([Bytes.empty] for a GET). *)
type stream = { is_put : bool array; keys : int64 array; vals : bytes array }

type inputs = {
  preload : int64 array;  (* shuffled over a key space 4x its size *)
  warm : stream array;  (* one per front-end *)
  main : stream array;
}

let gen_stream rng ~n ~put_ratio ~dist ~keyspace ~value =
  let keygen =
    Ycsb.create ~value_size ~distribution:dist ~keyspace ~put_ratio (Rng.split rng)
  in
  let mix = Rng.split rng in
  let is_put = Array.make n false and keys = Array.make n 0L and vals = Array.make n Bytes.empty in
  for i = 0 to n - 1 do
    keys.(i) <- Ycsb.key keygen;
    if Rng.float mix < put_ratio then begin
      is_put.(i) <- true;
      vals.(i) <- value keys.(i)
    end
  done;
  { is_put; keys; vals }

(* Single-front-end values carry a put stamp after the key, so the oracle
   tells a fresh value from a stale one. *)
let stamped () =
  let stamp = ref 0L in
  fun key ->
    stamp := Int64.succ !stamp;
    let v = Runner.value_of ~size:value_size key in
    Bytes.set_int64_le v 8 !stamp;
    v

let prepare w ~seed =
  let sz = size w in
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let preload = Array.init sz.preload (fun i -> Int64.of_int (4 * i)) in
  Rng.shuffle (Rng.split rng) preload;
  let keyspace = 4 * sz.preload in
  let single ~put_ratio ~dist =
    let value = stamped () in
    let s n = gen_stream rng ~n ~put_ratio ~dist ~keyspace ~value in
    let warm = s sz.warm in
    { preload; warm = [| warm |]; main = [| s sz.ops |] }
  in
  match w with
  | Write_rcb -> single ~put_ratio:0.9 ~dist:Ycsb.Uniform
  | Read_zipf -> single ~put_ratio:0.05 ~dist:(Ycsb.Zipfian 0.99)
  | Shared ->
      let value k = Runner.value_of ~size:value_size k in
      let s ~n ~put_ratio = gen_stream rng ~n ~put_ratio ~dist:Ycsb.Uniform ~keyspace ~value in
      let role i = if i < shared_writers then 1.0 else 0.0 in
      let n_fe = shared_writers + shared_readers in
      {
        preload;
        warm = Array.init n_fe (fun i -> s ~n:(if role i > 0.0 then 0 else sz.warm) ~put_ratio:0.0);
        main = Array.init n_fe (fun i -> s ~n:sz.ops ~put_ratio:(role i));
      }

(* -- structure instances ------------------------------------------------------ *)

type inst = { put : int64 -> bytes -> unit; get : int64 -> bytes option }

let plain ~opts c =
  let b = P.attach ~opts c ~name:ds_name in
  { put = (fun key value -> P.put b ~key ~value); get = (fun key -> P.find b ~key) }

let timed ~opts fe c =
  let b = Pt.attach ~opts (Tracer.Timed.make fe c) ~name:ds_name in
  { put = (fun key value -> Pt.put b ~key ~value); get = (fun key -> Pt.find b ~key) }

(* -- the closed loop ---------------------------------------------------------- *)

(* Per op: virtual latency (ns), what a GET returned, whether it raised. *)
type out = { lat : int array; got : bytes option array; raised : bool array }

let out_for (s : stream) =
  let n = Array.length s.keys in
  { lat = Array.make n 0; got = Array.make n None; raised = Array.make n false }

let next_op = ref 0

let run_ops ?fe inst (s : stream) clk o =
  for i = 0 to Array.length s.keys - 1 do
    let t0 = Clock.now clk in
    (match fe with
    | Some fe ->
        fe.Tracer.op <- !next_op;
        incr next_op;
        Tracer.enter fe Tracer.Op
    | None -> ());
    (try
       if s.is_put.(i) then inst.put s.keys.(i) s.vals.(i) else o.got.(i) <- inst.get s.keys.(i)
     with _ -> o.raised.(i) <- true);
    (match fe with Some fe -> Tracer.leave fe | None -> ());
    o.lat.(i) <- Clock.now clk - t0
  done

(* -- layer counters ------------------------------------------------------------- *)

let counters bk clients =
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let dev = Backend.device bk in
  [
    ("verbs", sum Client.rdma_ops);
    ("wire_bytes", sum Client.rdma_bytes);
    ("flushes", sum Client.flushes);
    ("read_retries", sum Client.read_retries);
    ("lock_wait_ns", sum Client.lock_wait_ns);
    ("cache_hits", sum (fun c -> fst (Client.cache_stats c)));
    ("cache_misses", sum (fun c -> snd (Client.cache_stats c)));
    ("replayed_entries", Backend.replayed_entries bk);
    ("rpcs", Backend.rpcs_served bk);
    ("cpu_busy_ns", Timeline.busy_total (Backend.cpu bk));
    ("nic_busy_ns", Timeline.busy_total (Backend.nic bk));
    ("nic_queued_ns", Timeline.queued_total (Backend.nic bk));
    ( "mirror_bytes",
      List.fold_left (fun a m -> a + Mirror.bytes_replicated m) 0 (Backend.mirrors bk) );
    ("device_writes", Asym_nvm.Device.writes_performed dev);
    ("device_reads", Asym_nvm.Device.reads_performed dev);
    ("device_bytes_written", Asym_nvm.Device.bytes_written dev);
  ]

let delta before after = List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after

(* -- rounds ------------------------------------------------------------------------ *)

type mode = Plain | Attr | Traced

(* What the modelled system did in the window: deterministic for a seed. *)
type sim = {
  ops : int;
  puts : int;
  makespan_ns : int;  (* start line to the last front-end's last op *)
  writer_ns : int;  (* summed windows of the front-ends that PUT *)
  get_lat : int array;
  put_lat : int array;
  counts : (string * int) list;
}

type layer = {
  self_ns : int array;  (* per {!Tracer.kind} *)
  calls : int array;
  flush_ns : int;
  op_ns : int;  (* summed [Op] span durations *)
}

type round = {
  mode : mode;
  setup_s : float;  (* CPU seconds, as [create_s] and [measure_cpu_s] *)
  create_s : float;  (* rig: back-end, device and mirror creation *)
  measure_s : float;  (* wall seconds of the window *)
  measure_cpu_s : float;
  attempted : int;
  failed : int;
  sim : sim;
  host : Host.counters;
  sched_self_ns : int;  (* [Sched.run] wall minus time inside front-end bodies *)
  layer : layer option;
  attr : (Asym_obs.Attr.cause * int) list;
  attr_ok : bool;  (* causes sum to the elapsed virtual time *)
}

let count_failed o = Array.fold_left (fun a r -> if r then a + 1 else a) 0 o.raised

let summarize ~streams ~outs ~makespan_ns ~writer_ns ~counts =
  let gets = ref [] and puts = ref [] in
  Array.iteri
    (fun f (s : stream) ->
      Array.iteri
        (fun i p ->
          let l = outs.(f).lat.(i) in
          if p then puts := l :: !puts else gets := l :: !gets)
        s.is_put)
    streams;
  let put_lat = Array.of_list (List.rev !puts) in
  {
    ops = Array.fold_left (fun a (s : stream) -> a + Array.length s.keys) 0 streams;
    puts = Array.length put_lat;
    makespan_ns;
    writer_ns;
    get_lat = Array.of_list (List.rev !gets);
    put_lat;
    counts;
  }

(* One round: set-up, the measured window, then the oracle over every
   output of the round. *)
let round w inputs ~mode =
  Gc.full_major ();
  let t_start = Host.cpu_ns () in
  let shared = w = Shared in
  let rig =
    Runner.make_rig ~capacity ~memlog_cap ~mirrors:(if w = Write_rcb then 1 else 0)
      Latency.default
  in
  let create_s = Host.cpu_secs_since t_start in
  let opts = Runner.ds_opts ~shared Runner.Bpt in
  (* Preload through a throwaway front-end, as the paper's Table 3 cells do. *)
  let pre = Runner.fresh_client ~name:"preload" rig (Client.rcb ~batch_size:256 ()) in
  let pinst = plain ~opts pre in
  Array.iter (fun k -> pinst.put k (Runner.value_of ~size:value_size k)) inputs.preload;
  Client.close pre;
  let cfgs =
    match w with
    | Write_rcb -> [| Client.rcb ~batch_size:1024 () |]
    | Read_zipf -> [| Client.rc () |]
    | Shared ->
        (* Writers run without a front-end cache: a writer's cached pages
           are not invalidated when another writer's transaction lands, so
           cached writers on one tree overwrite each other's nodes (lost
           updates the oracle below catches). *)
        let writer =
          { (Client.rcb ~batch_size:16 ()) with Client.flush_on_unlock = true; use_cache = false }
        in
        Array.init (shared_writers + shared_readers) (fun i ->
            if i < shared_writers then writer else Client.rc ())
  in
  let clients =
    Array.mapi
      (fun i cfg ->
        Runner.fresh_client ~name:(Printf.sprintf "fe%d" i) rig
          (Runner.with_cache_pct rig cfg 0.10))
      cfgs
  in
  let fes = Array.mapi (fun i c -> Tracer.fe ~fid:i (Client.clock c)) clients in
  let insts =
    Array.mapi
      (fun i c -> if mode = Traced then timed ~opts fes.(i) c else plain ~opts c)
      clients
  in
  let warm_outs = Array.map out_for inputs.warm in
  Array.iteri (fun i s -> run_ops insts.(i) s (Client.clock clients.(i)) warm_outs.(i)) inputs.warm;
  let clocks = Array.to_list (Array.map Client.clock clients) in
  let t0 = Sched.makespan clocks in
  List.iter (fun c -> Clock.wait_until c t0) clocks;
  (* Collect the set-up's garbage now, so the window does not pay for it
     at a seed-dependent moment (this also steadies the peak RSS). *)
  Gc.full_major ();
  let setup_s = Host.cpu_secs_since t_start in
  (* -- the measured window -- *)
  if mode = Attr then begin
    Asym_obs.reset ();
    Asym_obs.set_enabled true
  end;
  if mode = Traced then begin
    Tracer.reset ();
    next_op := 0
  end;
  let outs = Array.map out_for inputs.main in
  let client_list = Array.to_list clients in
  let c0 = counters rig.Runner.bk client_list in
  let h0 = Host.counters () in
  let w0 = Host.now_ns () and cpu0 = Host.cpu_ns () in
  let fe_of i = if mode = Traced then Some fes.(i) else None in
  if shared then
    Sched.run
      (List.init (Array.length clients) (fun i ->
           let clk = Client.clock clients.(i) in
           let body () = run_ops ?fe:(fe_of i) insts.(i) inputs.main.(i) clk outs.(i) in
           Sched.client ~clock:clk
             ~run:(if mode = Traced then Tracer.run_body fes.(i) body else body)))
  else run_ops ?fe:(fe_of 0) insts.(0) inputs.main.(0) (Client.clock clients.(0)) outs.(0);
  let wall = Host.now_ns () - w0 and cpu = Host.cpu_ns () - cpu0 in
  let host = Host.diff h0 (Host.counters ()) in
  let counts = delta c0 (counters rig.Runner.bk client_list) in
  let layer =
    if mode <> Traced then None
    else
      Some
        {
          self_ns = Array.copy Tracer.self_ns;
          calls = Array.copy Tracer.calls;
          flush_ns = !Tracer.flush_ns;
          op_ns = !Tracer.op_ns;
        }
  in
  let elapsed = List.map (fun c -> Clock.now c - t0) clocks in
  let attr, attr_ok =
    if mode <> Attr then ([], true)
    else begin
      let b = List.map (fun c -> (c, Asym_obs.Attr.get c)) Asym_obs.Attr.all in
      let ok = Asym_obs.Attr.total () = List.fold_left ( + ) 0 elapsed in
      Asym_obs.set_enabled false;
      Asym_obs.reset ();
      (b, ok)
    end
  in
  let writer_ns =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> Array.exists Fun.id inputs.main.(i).is_put) elapsed)
  in
  let sim =
    summarize ~streams:inputs.main ~outs ~makespan_ns:(List.fold_left max 0 elapsed) ~writer_ns
      ~counts
  in
  (* -- the oracle -- *)
  let failed = ref 0 and attempted = ref 0 in
  let fail () = incr failed in
  let model = Hashtbl.create (2 * Array.length inputs.preload) in
  Array.iter (fun k -> Hashtbl.replace model k (Runner.value_of ~size:value_size k)) inputs.preload;
  let check (s : stream) o ~expect =
    attempted := !attempted + Array.length s.keys;
    failed := !failed + count_failed o;
    Array.iteri (fun i k -> if not o.raised.(i) then expect i k s o.got.(i)) s.keys
  in
  if not shared then begin
    (* The reference map replays every put in order; each GET must match it. *)
    let expect i k (s : stream) got =
      if s.is_put.(i) then Hashtbl.replace model k s.vals.(i)
      else if got <> Hashtbl.find_opt model k then fail ()
    in
    check inputs.warm.(0) warm_outs.(0) ~expect;
    check inputs.main.(0) outs.(0) ~expect
  end
  else begin
    (* Concurrent readers: a GET returns the key's one value, and never
       misses a preloaded key. Then every written key is read back. *)
    let expect i k (s : stream) got =
      if not s.is_put.(i) then
        match got with
        | Some v -> if v <> Runner.value_of ~size:value_size k then fail ()
        | None -> if Hashtbl.mem model k then fail ()
    in
    Array.iteri (fun f s -> check s warm_outs.(f) ~expect) inputs.warm;
    Array.iteri (fun f s -> check s outs.(f) ~expect) inputs.main;
    let reader = plain ~opts clients.(shared_writers) in
    let written = Hashtbl.create 4096 in
    Array.iter
      (fun (s : stream) ->
        Array.iteri (fun i k -> if s.is_put.(i) then Hashtbl.replace written k ()) s.keys)
      inputs.main;
    Hashtbl.iter
      (fun k () ->
        incr attempted;
        match reader.get k with
        | Some v when v = Runner.value_of ~size:value_size k -> ()
        | _ | (exception _) -> fail ())
      written
  end;
  let sched_self_ns =
    if shared && mode = Traced then wall - Array.fold_left (fun a fe -> a + fe.Tracer.running) 0 fes
    else 0
  in
  {
    mode;
    setup_s;
    create_s;
    measure_s = float_of_int wall /. 1e9;
    measure_cpu_s = float_of_int cpu /. 1e9;
    attempted = !attempted;
    failed = !failed;
    sim;
    host;
    sched_self_ns;
    layer;
    attr;
    attr_ok;
  }
