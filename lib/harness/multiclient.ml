(** Multi-front-end experiments: reader scalability (Figure 8), multiple
    structures per back-end (Figure 9), partitioning over several
    back-ends (Figure 10), CPU utilization (Figure 11), the §6.3 lock
    ping-point test, and the lock-contention scaling study. Each
    experiment only describes its clients' steps; {!Runner.race} runs
    them as straight-line loops under {!Asym_sim.Sched}, which suspends a
    client at every clock advance — clients interleave at verb
    granularity, racing inside lock holds and optimistic read sections. *)

open Asym_sim
open Asym_core

let lat = Latency.default

(* A uniformly random insert / lookup over the keys [0, keyspace). *)
let put_random inst rng keyspace =
  let k = Int64.of_int (Asym_util.Rng.int rng keyspace) in
  inst.Runner.put k (Runner.value_of k)

let get_random inst rng keyspace =
  ignore (inst.Runner.get (Int64.of_int (Asym_util.Rng.int rng keyspace)))

(* {!Runner.race} entries for front-ends that each insert random keys,
   front-end [i] drawing them from seed [seed + i]. *)
let inserters ~seed ~keyspace clients =
  List.mapi
    (fun i (c, inst) ->
      let rng = Asym_util.Rng.create ~seed:(Int64.of_int (seed + i)) in
      (Client.clock c, fun () -> put_random inst rng keyspace))
    clients

(* A raced client's throughput over its own window from [t0]. *)
let rate t0 c n = Runner.kops_of n (Clock.now (Client.clock c) - t0)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Failed optimistic reads over attempted reads. *)
let fail_ratio ~ok ~failed =
  if ok + failed = 0 then 0.0 else float_of_int failed /. float_of_int (ok + failed)

(* ------------------------------------------------------------------ *)
(* Figure 8 — multiple readers, one writer                              *)
(* ------------------------------------------------------------------ *)

type fig8_point = { writer_kops : float; reader_avg_kops : float; retry_ratio : float }

let fig8_point ~kind ~readers ~preload ~duration =
  let rig = Runner.make_rig lat in
  (* Writer preloads, then keeps inserting. *)
  let wcfg = { (Client.rcb ~batch_size:64 ()) with Client.flush_on_unlock = false } in
  let writer = Runner.fresh_client ~name:"writer" rig wcfg in
  let winst = Runner.client_instance ~shared:true kind writer ~name:"shared-ds" in
  Runner.preload_instance winst ~fifo:false ~n:preload ~value_size:64;
  let rclients =
    List.init readers (fun i ->
        Runner.fresh_client ~name:(Printf.sprintf "reader%d" i) rig
          (Runner.with_cache_pct rig (Client.rc ()) 0.10))
  in
  let rinsts =
    List.map (fun c -> (c, Runner.client_instance ~shared:true kind c ~name:"shared-ds")) rclients
  in
  (* Warm every reader's cache and level threshold before the clocks are
     aligned and measurement starts. *)
  List.iteri
    (fun i (_, inst) ->
      let rng = Asym_util.Rng.create ~seed:(Int64.of_int (900 + i)) in
      for _ = 1 to 1024 do
        get_random inst rng preload
      done)
    rinsts;
  let wrng = Asym_util.Rng.create ~seed:51L in
  let read i (c, inst) =
    let rng = Asym_util.Rng.create ~seed:(Int64.of_int (100 + i)) in
    (Client.clock c, fun () -> get_random inst rng preload)
  in
  let t0, counts =
    Runner.race ~duration
      ((Client.clock writer, fun () -> put_random winst wrng (preload * 4))
      :: List.mapi read rinsts)
  in
  let rops = List.tl counts in
  let retries = List.fold_left (fun a c -> a + Client.read_retries c) 0 rclients in
  {
    writer_kops = rate t0 writer (List.hd counts);
    reader_avg_kops = mean (List.map2 (rate t0) rclients rops);
    retry_ratio = fail_ratio ~ok:(List.fold_left ( + ) 0 rops) ~failed:retries;
  }

let fig8 ~preload ~duration =
  let t =
    Report.create ~title:"Figure 8: reader scalability (KOPS), 1 writer + N readers"
      ~header:[ "Benchmark"; "Readers"; "Reader avg"; "Writer"; "Retry ratio" ]
      ~notes:
        [
          "8a lock-free: MV-BST / MV-BPT (no retries by construction)";
          "8b lock-based: BST / BPT / SkipList (optimistic readers retry)";
        ]
      ()
  in
  List.iter
    (fun kind ->
      List.iter
        (fun readers ->
          let p = fig8_point ~kind ~readers ~preload ~duration in
          Report.add_row t
            [
              Runner.ds_name kind;
              string_of_int readers;
              Report.kops p.reader_avg_kops;
              Report.kops p.writer_kops;
              Report.pct p.retry_ratio;
            ])
        [ 1; 2; 3; 4; 5; 6 ])
    [ Runner.Mv_bst; Runner.Mv_bpt; Runner.Bst; Runner.Bpt; Runner.Skip_list ];
  t

(* ------------------------------------------------------------------ *)
(* Figure 9 — multiple structures sharing one back-end                  *)
(* ------------------------------------------------------------------ *)

let fig9_point ~kind ~n ~preload ~duration =
  let rig = Runner.make_rig lat in
  let clients =
    List.init n (fun i ->
        let c =
          Runner.fresh_client ~name:(Printf.sprintf "fe%d" i) rig (Client.rcb ~batch_size:64 ())
        in
        let inst = Runner.client_instance kind c ~name:(Printf.sprintf "ds%d" i) in
        Runner.preload_instance inst ~fifo:false ~n:preload ~value_size:64;
        (c, inst))
  in
  let _, counts =
    Runner.race ~duration (inserters ~seed:200 ~keyspace:(preload * 4) clients)
  in
  Runner.kops_of (List.fold_left ( + ) 0 counts) duration

let fig9 ~preload ~duration =
  let t =
    Report.create
      ~title:"Figure 9: aggregate throughput (KOPS), N front-ends with independent structures"
      ~header:("Benchmark" :: List.map string_of_int [ 1; 2; 3; 4; 5; 6; 7 ])
      ()
  in
  List.iter
    (fun kind ->
      Report.add_row t
        (Runner.ds_name kind
        :: List.map
             (fun n -> Report.kops (fig9_point ~kind ~n ~preload ~duration))
             [ 1; 2; 3; 4; 5; 6; 7 ]))
    [ Runner.Skip_list; Runner.Bst; Runner.Bpt; Runner.Mv_bst; Runner.Mv_bpt ];
  t

(* ------------------------------------------------------------------ *)
(* Figure 10 — partitioning over multiple back-ends                     *)
(* ------------------------------------------------------------------ *)

let fig10_point ~kind ~backends ~preload ~ops =
  (* One front-end node (one clock) with a connection to each back-end;
     key-hash routing picks the partition (§8.3 / Multi_backend). *)
  let rigs =
    List.init backends (fun i ->
        Runner.make_rig ~name:(Printf.sprintf "bk%d" i) ~capacity:(64 * 1024 * 1024)
          ~max_sessions:3 ~memlog_cap:(4 * 1024 * 1024) lat)
  in
  let clock = Clock.create ~name:"fe" () in
  let mb =
    Asym_structs.Multi_backend.create ~cfg:(Client.rcb ~batch_size:64 ()) ~name:"part" ~clock
      ~backends:(List.map (fun r -> r.Runner.bk) rigs)
      ~attach:(fun c _i -> Runner.client_instance kind c ~name:"part")
      ()
  in
  let route key = Asym_structs.Multi_backend.route mb key in
  (* Preload through the partitions, shuffled and spread over the key
     space (an ordered preload degenerates the unbalanced trees). *)
  let keys = Array.init preload (fun i -> Int64.of_int (4 * i)) in
  Asym_util.Rng.shuffle (Asym_util.Rng.create ~seed:4321L) keys;
  Array.iter (fun k -> (route k).Runner.put k (Runner.value_of k)) keys;
  Asym_structs.Multi_backend.iter_parts mb (fun _ inst -> inst.Runner.cleanup ());
  let rng = Asym_util.Rng.create ~seed:61L in
  let kops, _, _ =
    Runner.measure ~clock ~ops (fun _ ->
        let k = Int64.of_int (Asym_util.Rng.int rng (preload * 4)) in
        (route k).Runner.put k (Runner.value_of k))
  in
  kops

let fig10 ~preload ~ops =
  let t =
    Report.create ~title:"Figure 10: throughput (KOPS) with the structure partitioned over N back-ends"
      ~header:("Benchmark" :: List.map string_of_int [ 1; 2; 3; 4; 5; 6; 7 ])
      ()
  in
  List.iter
    (fun kind ->
      Report.add_row t
        (Runner.ds_name kind
        :: List.map
             (fun n -> Report.kops (fig10_point ~kind ~backends:n ~preload ~ops))
             [ 1; 2; 3; 4; 5; 6; 7 ]))
    [ Runner.Skip_list; Runner.Bst; Runner.Bpt; Runner.Mv_bst; Runner.Mv_bpt ];
  t

(* ------------------------------------------------------------------ *)
(* Figure 11 — CPU utilization                                          *)
(* ------------------------------------------------------------------ *)

let fig11 ~preload ~ops =
  let t =
    Report.create ~title:"Figure 11: CPU utilization, BST with 10% put / 90% get"
      ~header:[ "Ops so far"; "Front-end util"; "Back-end util" ]
      ()
  in
  let rig = Runner.make_rig lat in
  let c =
    Runner.fresh_client ~name:"fe" rig
      (Runner.with_cache_pct rig (Client.rcb ~batch_size:64 ()) 0.10)
  in
  let inst = Runner.client_instance Runner.Bst c ~name:"bst" in
  Runner.preload_instance inst ~fifo:false ~n:preload ~value_size:64;
  let clock = Client.clock c in
  let rng = Asym_util.Rng.create ~seed:71L in
  let windows = 10 in
  let per_window = max 1 (ops / windows) in
  let done_ops = ref 0 in
  for _ = 1 to windows do
    let fe_busy0 = Clock.busy clock in
    let be_busy0 = Timeline.busy_total (Backend.cpu rig.Runner.bk) in
    let _, elapsed, _ =
      Runner.measure ~clock ~ops:per_window (fun _ ->
          let k = Int64.of_int (Asym_util.Rng.int rng (preload * 2)) in
          if Asym_util.Rng.float rng < 0.1 then inst.Runner.put k (Runner.value_of k)
          else ignore (inst.Runner.get k))
    in
    done_ops := !done_ops + per_window;
    let fe = float_of_int (Clock.busy clock - fe_busy0) /. float_of_int (max 1 elapsed) in
    let be =
      float_of_int (Timeline.busy_total (Backend.cpu rig.Runner.bk) - be_busy0)
      /. float_of_int (max 1 elapsed)
    in
    Report.add_row t [ string_of_int !done_ops; Report.pct fe; Report.pct be ]
  done;
  t

(* ------------------------------------------------------------------ *)
(* §6.3 lock ping-point test                                            *)
(* ------------------------------------------------------------------ *)

let lock_bench_point ~write_ratio ~readers ~duration =
  let rig = Runner.make_rig lat in
  (* One shared 64-byte object, registered in the naming space. *)
  let setup = Runner.fresh_client ~name:"setup" rig (Client.r ()) in
  let h = Client.register_ds setup "object" in
  let addr = Client.malloc setup 64 in
  ignore (Client.op_begin setup ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write setup ~ds:h.Types.id ~addr (Bytes.make 64 'i');
  Client.op_end setup ~ds:h.Types.id;
  (* Writer client: mixes writes (under the exclusive lock) with reads so
     that [write_ratio] of its operations are writes. *)
  let wc = Runner.fresh_client ~name:"writer" rig (Client.rcb ~batch_size:8 ()) in
  let wh = Client.register_ds wc "object" in
  let rcs =
    List.init readers (fun i ->
        let c = Runner.fresh_client ~name:(Printf.sprintf "r%d" i) rig (Client.r ()) in
        (c, Client.register_ds c "object"))
  in
  let wrng = Asym_util.Rng.create ~seed:81L in
  let write () =
    if Asym_util.Rng.float wrng < write_ratio then begin
      Client.writer_lock wc wh;
      ignore (Client.op_begin wc ~ds:wh.Types.id ~optype:1 ~params:Bytes.empty);
      Client.write wc ~ds:wh.Types.id ~addr (Bytes.make 64 'w');
      Client.op_end wc ~ds:wh.Types.id;
      Client.writer_unlock wc wh
    end
    else ignore (Client.read wc ~addr ~len:64)
  in
  let read (c, hh) =
    let read () = Client.read c ~addr ~len:64 in
    (Client.clock c, fun () -> ignore (Client.read_section c hh read))
  in
  let retries () = List.fold_left (fun a (c, _) -> a + Client.read_retries c) 0 rcs in
  let retries0 = retries () in
  let t0, counts = Runner.race ~duration ((Client.clock wc, write) :: List.map read rcs) in
  let reads = List.tl counts in
  let reader_avg = mean (List.map2 (fun (c, _) n -> rate t0 c n) rcs reads) in
  ( reader_avg,
    reader_avg *. float_of_int readers,
    rate t0 wc (List.hd counts),
    fail_ratio ~ok:(List.fold_left ( + ) 0 reads) ~failed:(retries () - retries0) )

let lock_bench ~duration =
  let t =
    Report.create ~title:"Lock ping-point test (§6.3): 6 readers + 1 writer on one object"
      ~header:[ "Write ratio"; "Reader avg"; "Readers total"; "Writer"; "Reader fail ratio" ]
      ~notes:
        [ "paper: 10% write -> 260 KOPS/reader, 539 KOPS writer, 3% fails; 50% write -> 165 \
           KOPS/reader, 510 KOPS writer, 26% fails" ]
      ()
  in
  List.iter
    (fun ratio ->
      let avg, total, writer, fails = lock_bench_point ~write_ratio:ratio ~readers:6 ~duration in
      Report.add_row t
        [
          Report.pct ratio; Report.kops avg; Report.kops total; Report.kops writer;
          Report.pct fails;
        ])
    [ 0.1; 0.5 ];
  t

(* ------------------------------------------------------------------ *)
(* Lock-contention scaling: N writers on one shared structure           *)
(* ------------------------------------------------------------------ *)

type contention_point = {
  total_kops : float;
  lock_wait_share : float;
  avg_lock_wait_ns : float;
}

let contention_point ~writers ~preload ~duration =
  let rig = Runner.make_rig lat in
  (* flush_on_unlock: several front-ends write the same structure, so the
     holder must make its writes visible before the next CAS winner reads
     the tree — the config the paper requires for shared writers. *)
  let cfg = { (Client.rcb ~batch_size:16 ()) with Client.flush_on_unlock = true } in
  let setup = Runner.fresh_client ~name:"setup" rig cfg in
  let sinst = Runner.client_instance ~shared:true Runner.Bst setup ~name:"contended-ds" in
  Runner.preload_instance sinst ~fifo:false ~n:preload ~value_size:64;
  Client.close setup;
  let wcs =
    List.init writers (fun i ->
        let c = Runner.fresh_client ~name:(Printf.sprintf "w%d" i) rig cfg in
        (c, Runner.client_instance ~shared:true Runner.Bst c ~name:"contended-ds"))
  in
  let t0, counts = Runner.race ~duration (inserters ~seed:300 ~keyspace:(preload * 4) wcs) in
  let total = List.fold_left ( + ) 0 counts in
  let elapsed =
    List.fold_left (fun a (c, _) -> a + (Clock.now (Client.clock c) - t0)) 0 wcs
  in
  let waited = List.fold_left (fun a (c, _) -> a + Client.lock_wait_ns c) 0 wcs in
  {
    total_kops = Runner.kops_of total duration;
    lock_wait_share =
      (if elapsed <= 0 then 0.0 else float_of_int waited /. float_of_int elapsed);
    avg_lock_wait_ns =
      (if total = 0 then 0.0 else float_of_int waited /. float_of_int total);
  }

let contention ~preload ~duration =
  let t =
    Report.create
      ~title:"Lock contention: N writers racing for one shared BST's writer lock"
      ~header:[ "Writers"; "Total KOPS"; "Lock-wait share"; "Avg lock wait (ns/op)" ]
      ~notes:
        [
          "lock-wait share = sum of per-writer lock wait / sum of per-writer elapsed time";
          "each CAS probe is a suspension point: spinning interleaves with the holder's verbs";
        ]
      ()
  in
  List.iter
    (fun n ->
      let p = contention_point ~writers:n ~preload ~duration in
      Report.add_row t
        [
          string_of_int n;
          Report.kops p.total_kops;
          Report.pct p.lock_wait_share;
          Printf.sprintf "%.0f" p.avg_lock_wait_ns;
        ])
    [ 1; 2; 3; 4; 6; 8 ];
  t
