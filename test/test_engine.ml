(* The verb-granular concurrency engine: determinism (same seed twice ->
   byte-identical results), true within-operation interleaving (a lock
   loser provably waits while the holder works), and attribution
   conservation under mid-operation suspension. *)

open Asym_sim
open Asym_core
module Obs = Asym_obs
module Attr = Asym_obs.Attr
module Runner = Asym_harness.Runner
module Multiclient = Asym_harness.Multiclient
module Bench_json = Asym_harness.Bench_json

let check = Alcotest.check
let lat = Latency.default

let with_obs f () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)

(* -- determinism ------------------------------------------------------------ *)

(* The scheduler picks the next client purely from (virtual time, client
   id): the same seeds must reproduce the same co-simulation exactly —
   same makespan, same throughput, same attribution. *)
let test_deterministic_point () =
  let run () =
    Multiclient.contention_point ~writers:3 ~preload:128 ~duration:(Simtime.ms 3)
  in
  let a = run () and b = run () in
  check (Alcotest.float 0.0) "total kops identical" a.Multiclient.total_kops
    b.Multiclient.total_kops;
  check (Alcotest.float 0.0) "lock-wait share identical" a.Multiclient.lock_wait_share
    b.Multiclient.lock_wait_share;
  check (Alcotest.float 0.0) "avg wait identical" a.Multiclient.avg_lock_wait_ns
    b.Multiclient.avg_lock_wait_ns

(* Same seed twice -> the asymnvm-bench/1 document is byte-identical,
   cells and shape verdicts included (the CI bench-diff contract). *)
let test_deterministic_json () =
  let doc () =
    let r = Multiclient.contention ~preload:64 ~duration:(Simtime.ms 2) in
    Obs.Json.to_string
      (Bench_json.doc ~scale:"test"
         ~experiments:[ ("contention", r) ]
         ~checks:(Bench_json.checks_for "contention" r))
  in
  check Alcotest.string "bench JSON byte-identical across runs" (doc ()) (doc ())

(* The per-clock attribution a run produces is part of the deterministic
   surface too: identical per-cause global deltas across two runs. *)
let test_deterministic_attribution () =
  let run () =
    let mark = Attr.snapshot () in
    ignore
      (Multiclient.contention_point ~writers:2 ~preload:64 ~duration:(Simtime.ms 2));
    List.map (fun (c, v) -> (Attr.name c, v)) (Attr.since mark)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "attribution deltas identical" (run ()) (run ())

(* -- true within-operation interleaving ------------------------------------- *)

(* Two writers hammer one lock. Under the old engine each operation ran
   to completion before the other client moved, so both clients' lock
   holds started from the same aligned instant and their virtual
   critical sections overlapped. Under the co-simulation the CAS probes
   interleave with the holder's verbs: the loser accumulates nonzero
   lock_wait and every critical section is disjoint in virtual time. *)
let test_lock_interleaving () =
  let rig = Runner.make_rig lat in
  let mk name =
    let c =
      Runner.fresh_client ~name rig
        { (Client.rcb ~batch_size:8 ()) with Client.flush_on_unlock = true }
    in
    (c, Client.register_ds c "obj")
  in
  let c0, h0 = mk "w0" and c1, h1 = mk "w1" in
  let addr = Client.malloc c0 64 in
  ignore (Runner.align [ Client.clock c0; Client.clock c1 ]);
  let sections = Array.make 2 [] in
  let body i c (h : Types.handle) =
    let clk = Client.clock c in
    Sched.client ~clock:clk ~run:(fun () ->
        for _ = 1 to 5 do
          Client.writer_lock c h;
          let locked_at = Clock.now clk in
          ignore (Client.op_begin c ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
          Client.write c ~ds:h.Types.id ~addr (Bytes.make 64 'x');
          Client.op_end c ~ds:h.Types.id;
          sections.(i) <- (locked_at, Clock.now clk) :: sections.(i);
          Client.writer_unlock c h
        done)
  in
  Sched.run [ body 0 c0 h0; body 1 c1 h1 ];
  check Alcotest.int "both clients completed" 5 (List.length sections.(0));
  check Alcotest.int "both clients completed" 5 (List.length sections.(1));
  let waited = Client.lock_wait_ns c0 + Client.lock_wait_ns c1 in
  (* Probe cost alone gives each op >= rdma_atomic_ns of Lock_wait; real
     contention makes the losers' spins much larger. *)
  Alcotest.(check bool)
    "losers accumulated lock wait" true
    (waited > 10 * lat.Latency.rdma_atomic_ns);
  (* Critical sections are serialized in virtual time across clients. *)
  List.iter
    (fun (a0, b0) ->
      List.iter
        (fun (a1, b1) ->
          Alcotest.(check bool)
            (Printf.sprintf "sections [%d,%d] and [%d,%d] disjoint" a0 b0 a1 b1)
            true
            (b0 <= a1 || b1 <= a0))
        sections.(1))
    sections.(0)

(* -- conservation under suspension ------------------------------------------ *)

(* Random per-client advance/wait sequences, co-scheduled: every clock's
   local per-cause sums must equal its elapsed virtual time exactly, and
   the global sink must equal the sum of the locals — no nanosecond is
   lost or double-counted when a client suspends mid-sequence. *)
let prop_conservation_under_suspension =
  let gen =
    QCheck.(
      small_list (small_list (pair (int_bound (List.length Attr.all - 1)) (int_bound 1_000))))
  in
  QCheck.Test.make ~count:100 ~name:"per-clock attribution conserved under co-sim" gen
    (fun seqs ->
      Obs.set_enabled true;
      Obs.reset ();
      Fun.protect ~finally:(fun () ->
          Obs.reset ();
          Obs.set_enabled false)
      @@ fun () ->
      let clocks =
        List.mapi (fun i _ -> Clock.create ~name:(Printf.sprintf "c%d" i) ()) seqs
      in
      let clients =
        List.map2
          (fun clk seq ->
            Sched.client ~clock:clk ~run:(fun () ->
                List.iter
                  (fun (ci, d) ->
                    let cause = List.nth Attr.all ci in
                    Clock.advance ~cause clk d)
                  seq))
          clocks seqs
      in
      Sched.run clients;
      List.for_all
        (fun clk -> Attr.local_total (Clock.attr clk) = Clock.now clk)
        clocks
      && Attr.total () = List.fold_left (fun a clk -> a + Clock.now clk) 0 clocks)

(* Client-level version: two real clients co-scheduled; each per-op
   attribution window (taken against the clock-local sink) still sums to
   that client's elapsed time even though ops suspend mid-flight. *)
let test_client_conservation () =
  let rig = Runner.make_rig lat in
  let mk i =
    let c =
      Runner.fresh_client ~name:(Printf.sprintf "cc%d" i) rig (Client.rcb ~batch_size:8 ())
    in
    (c, Runner.client_instance Runner.Bst c ~name:(Printf.sprintf "ds%d" i))
  in
  let pairs = [ mk 0; mk 1 ] in
  let clocks = List.map (fun (c, _) -> Client.clock c) pairs in
  let t0 = Runner.align clocks in
  let marks =
    List.map (fun clk -> (clk, Attr.local_snapshot (Clock.attr clk))) clocks
  in
  let clients =
    List.mapi
      (fun i (c, inst) ->
        let clk = Client.clock c in
        let rng = Asym_util.Rng.create ~seed:(Int64.of_int (40 + i)) in
        Sched.client ~clock:clk ~run:(fun () ->
            for _ = 1 to 200 do
              let k = Int64.of_int (Asym_util.Rng.int rng 512) in
              inst.Runner.put k (Runner.value_of k)
            done))
      pairs
  in
  Sched.run clients;
  List.iter
    (fun (clk, mark) ->
      let charged =
        List.fold_left (fun a (_, v) -> a + v) 0 (Attr.local_since (Clock.attr clk) mark)
      in
      check Alcotest.int
        (Printf.sprintf "%s: local charges == elapsed" (Clock.name clk))
        (Clock.now clk - t0) charged)
    marks

(* -- cluster timers --------------------------------------------------------- *)

(* A keepalive heartbeat is just another co-simulated client: its
   renewals land between the worker's verbs at true virtual times, the
   lease stays fresh for exactly as long as the heartbeat runs, and
   lapses once it stops. *)
let test_heartbeat_interleaves () =
  let module Ka = Asym_cluster.Keepalive in
  let rig = Runner.make_rig lat in
  let c = Runner.fresh_client ~name:"hb-fe" rig (Client.rcb ~batch_size:8 ()) in
  let inst = Runner.client_instance Runner.Bst c ~name:"hbds" in
  let clk = Client.clock c in
  let kclk = Clock.create ~name:"ka" () in
  ignore (Runner.align [ clk; kclk ]);
  let lease = Simtime.us 500 in
  let stop = Clock.now clk + Simtime.ms 2 in
  let ka = Ka.create ~lease ~skew:Simtime.zero (Asym_util.Rng.create ~seed:9L) in
  let hb = Ka.heartbeat ka ~clock:kclk ~node:"fe" ~period:(Simtime.us 200) ~until:stop in
  let rng = Asym_util.Rng.create ~seed:10L in
  let worker =
    Sched.client ~clock:clk ~run:(fun () ->
        while Clock.now clk < stop do
          let k = Int64.of_int (Asym_util.Rng.int rng 256) in
          inst.Runner.put k (Runner.value_of k)
        done)
  in
  Sched.run [ worker; hb ];
  Alcotest.(check bool) "alive while heartbeating" true (Ka.alive ka "fe" ~now:stop);
  Alcotest.(check bool)
    "lease lapses after the heartbeat ends" false
    (Ka.alive ka "fe" ~now:(stop + (2 * lease) + 1))

let () =
  Alcotest.run "engine"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same point" `Quick (fun () ->
              test_deterministic_point ());
          Alcotest.test_case "same seed, same bench JSON" `Quick (fun () ->
              test_deterministic_json ());
          Alcotest.test_case "same seed, same attribution" `Quick
            (with_obs test_deterministic_attribution);
        ] );
      ( "interleaving",
        [ Alcotest.test_case "lock loser waits, sections disjoint" `Quick (fun () ->
              test_lock_interleaving ()) ] );
      ( "conservation",
        [
          QCheck_alcotest.to_alcotest prop_conservation_under_suspension;
          Alcotest.test_case "client windows under co-sim" `Quick
            (with_obs test_client_conservation);
        ] );
      ( "cluster-timers",
        [ Alcotest.test_case "heartbeat interleaves with verbs" `Quick (fun () ->
              test_heartbeat_interleaves ()) ] );
    ]
