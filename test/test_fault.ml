(* Transient-fault layer: verb loss/delay injection and timeouts in
   lib/rdma, the client retry/backoff/reconnect policy, grey-period
   tolerance in keepalive, fault_retry attribution conservation, and the
   fault-schedule fuzzer/sweep modes. Everything is seeded: the same
   seed must reproduce the same retry counts exactly. *)

open Asym_sim
open Asym_nvm
open Asym_rdma
open Asym_core
open Asym_cluster

let check = Alcotest.check
let lat = Latency.default

let mk_conn () =
  let dev = Device.create ~name:"backend" ~capacity:65536 lat in
  let nic = Timeline.create ~name:"nic" () in
  let clk = Clock.create ~name:"client" () in
  let conn = Verbs.connect ~client:clk ~remote_nic:nic ~remote_mem:dev lat in
  (dev, clk, conn)

let mk_backend () =
  Backend.create ~name:"bk" ~max_sessions:6 ~memlog_cap:(256 * 1024) ~oplog_cap:(128 * 1024)
    ~slab_size:1024 ~capacity:(8 * 1024 * 1024) lat

let set_drop ?(timeout_ns = 0) ?(seed = 9L) conn p =
  Verbs.set_fault conn (Some (Verbs.Fault.make ~drop_p:p ~timeout_ns ~seed ()))

(* -- verb-level injection ---------------------------------------------------- *)

let test_verb_timeout_raised () =
  let _, clk, conn = mk_conn () in
  set_drop conn 1.0;
  let t0 = Clock.now clk in
  (match Verbs.read conn ~addr:0 ~len:8 with
  | _ -> Alcotest.fail "read must time out under drop_p = 1"
  | exception Verbs.Verb_timeout _ -> ());
  check Alcotest.int "timeout counted" 1 (Verbs.verb_timeouts conn);
  check Alcotest.bool "client waited out the verb timeout" true
    (Clock.now clk - t0 >= lat.Latency.verb_timeout_ns)

let test_fault_timeout_override () =
  let _, clk, conn = mk_conn () in
  set_drop ~timeout_ns:77 conn 1.0;
  let t0 = Clock.now clk in
  (try ignore (Verbs.read conn ~addr:0 ~len:8) with Verbs.Verb_timeout _ -> ());
  check Alcotest.int "fault model's timeout wins" 77 (Clock.now clk - t0)

let test_atomic_loses_request_only () =
  (* A lost CAS must have no remote effect: real RNICs retransmit below
     the verb interface, so an atomic either completes or never reached
     the media — which is what makes retrying it safe. *)
  let dev, _, conn = mk_conn () in
  Device.write_u64 dev ~addr:64 7L;
  set_drop conn 1.0;
  for _ = 1 to 5 do
    try ignore (Verbs.compare_and_swap conn ~addr:64 ~expected:7L ~desired:8L)
    with Verbs.Verb_timeout _ -> ()
  done;
  check Alcotest.int64 "lost CAS never applied" 7L (Device.read_u64 dev ~addr:64)

let test_unsignaled_exempt () =
  let dev, _, conn = mk_conn () in
  set_drop conn 1.0;
  Verbs.write_unsignaled conn ~addr:0 (Bytes.of_string "U");
  check Alcotest.int "no completion, no timeout" 0 (Verbs.verb_timeouts conn);
  check Alcotest.string "posted write applied" "U"
    (Bytes.to_string (Device.read dev ~addr:0 ~len:1))

let test_grey_window () =
  let _, clk, conn = mk_conn () in
  (* No baseline loss; total loss inside the armed window. *)
  Verbs.set_fault conn (Some (Verbs.Fault.make ~drop_p:0. ~grey_drop_p:1.0 ~seed:3L ()));
  Verbs.write conn ~addr:0 (Bytes.of_string "ok");
  let now = Clock.now clk in
  Verbs.arm_grey conn ~from_:(now + Simtime.us 50) ~until:(now + Simtime.us 150);
  check Alcotest.string "delivered before the window" "ok"
    (Bytes.to_string (Verbs.read conn ~addr:0 ~len:2));
  Clock.wait_until clk (now + Simtime.us 50);
  (match Verbs.read conn ~addr:0 ~len:2 with
  | _ -> Alcotest.fail "grey window must lose the verb"
  | exception Verbs.Verb_timeout _ -> ());
  (* Timeouts advance the clock; once past the window verbs flow again. *)
  Clock.wait_until clk (now + Simtime.us 200);
  check Alcotest.string "delivered after grey" "ok"
    (Bytes.to_string (Verbs.read conn ~addr:0 ~len:2))

let test_seeded_injection_reproducible () =
  let run () =
    let _, clk, conn = mk_conn () in
    set_drop ~seed:21L conn 0.4;
    for i = 0 to 49 do
      try Verbs.write conn ~addr:(8 * i) (Bytes.of_string "abcdefgh")
      with Verbs.Verb_timeout _ -> ()
    done;
    (Verbs.verb_timeouts conn, Verbs.injected_delays conn, Clock.now clk)
  in
  let a = run () and b = run () in
  check
    Alcotest.(triple int int int)
    "same seed, same losses, same virtual time" a b;
  let timeouts, _, _ = a in
  check Alcotest.bool "some verbs actually lost" true (timeouts > 0)

(* -- client retry policy ------------------------------------------------------ *)

(* A full faulty client workload: puts then read-back through the B+
   tree, 20% verb loss. The retry layer must make every op succeed. *)
let faulty_workload ?(drop = 0.2) ?(seed = 5L) () =
  let bk = mk_backend () in
  let clk = Clock.create ~name:"fe" () in
  let fe = Client.connect ~name:"fe" (Client.rcb ()) bk ~clock:clk in
  Verbs.set_fault (Client.connection fe)
    (Some (Verbs.Fault.make ~drop_p:drop ~delay_p:0.1 ~delay_ns:2_000 ~seed ()));
  let module Bpt = Asym_structs.Pbptree.Make (Client) in
  let t = Bpt.attach fe ~name:"ft" in
  for i = 0 to 99 do
    Bpt.put t ~key:(Int64.of_int i) ~value:(Bytes.of_string (string_of_int i))
  done;
  Client.flush fe;
  Client.invalidate_cache fe;
  let lost = ref 0 in
  for i = 0 to 99 do
    match Bpt.find t ~key:(Int64.of_int i) with
    | Some v when Bytes.to_string v = string_of_int i -> ()
    | _ -> incr lost
  done;
  (bk, fe, !lost)

let test_client_survives_faults () =
  let bk, fe, lost = faulty_workload () in
  check Alcotest.int "no op lost or corrupted" 0 lost;
  check Alcotest.bool "retries actually happened" true (Client.fault_retries fe > 0);
  (* Positional idempotence: a retried append lands at the same ring
     offset, so the backend never even scans a duplicate frame. *)
  check Alcotest.int "no duplicate frames replayed" 0 (Backend.dup_replays_absorbed bk)

let test_retry_counts_reproducible () =
  let _, fe1, _ = faulty_workload ~seed:13L () in
  let _, fe2, _ = faulty_workload ~seed:13L () in
  check Alcotest.int "same seed, same retry count" (Client.fault_retries fe1)
    (Client.fault_retries fe2);
  check Alcotest.int "same reconnects" (Client.reconnects fe1) (Client.reconnects fe2);
  check Alcotest.int "same virtual end time"
    (Clock.now (Client.clock fe1))
    (Clock.now (Client.clock fe2))

let test_reconnect_after_budget () =
  (* Total loss: the per-verb budget dries up, the client degrades and
     reconnects (with a fresh budget) up to its cap, then re-raises. *)
  let bk = mk_backend () in
  let fe = Client.connect ~name:"fe" (Client.r ()) bk ~clock:(Clock.create ~name:"fe" ()) in
  Verbs.set_fault (Client.connection fe) (Some (Verbs.Fault.make ~drop_p:1.0 ~seed:2L ()));
  check Alcotest.bool "ping fails after exhausting every budget" false (Client.ping fe);
  check Alcotest.bool "degraded reconnects attempted" true (Client.reconnects fe > 0);
  (* Clearing the fault heals the connection. *)
  Verbs.set_fault (Client.connection fe) None;
  check Alcotest.bool "healed" true (Client.ping fe)

let test_fault_retry_conservation () =
  (* Every nanosecond of fault handling — timeout waits, backoff,
     reconnect handshakes, injected delays — carries the fault_retry
     cause, so attribution still sums to elapsed time exactly. *)
  Asym_obs.set_enabled true;
  Asym_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Asym_obs.reset ();
      Asym_obs.set_enabled false)
    (fun () ->
      let _, fe, lost = faulty_workload () in
      check Alcotest.int "workload intact" 0 lost;
      let clk = Client.clock fe in
      check Alcotest.bool "fault_retry time charged" true
        (Asym_obs.Attr.get Asym_obs.Attr.Fault_retry > 0);
      check Alcotest.int "conservation: attributed == elapsed (0 ns tolerance)"
        (Clock.now clk) (Asym_obs.Attr.total ()))

(* -- keepalive under grey periods --------------------------------------------- *)

let test_keepalive_rides_out_grey_period () =
  let bk = mk_backend () in
  let clk = Clock.create ~name:"fe" () in
  let fe = Client.connect ~name:"fe" (Client.rcb ()) bk ~clock:clk in
  Verbs.set_fault (Client.connection fe)
    (Some (Verbs.Fault.make ~drop_p:0. ~grey_drop_p:1.0 ~seed:4L ()));
  (* Grey for 3 ms, well under the 10 ms lease: renewals ride the faulty
     connection (retried like any verb, so merely delayed) and the node
     must never be declared crashed. *)
  Verbs.arm_grey (Client.connection fe) ~from_:(Simtime.ms 2) ~until:(Simtime.ms 5);
  let ka = Keepalive.create (Asym_util.Rng.create ~seed:1L) in
  Sched.run
    [
      Keepalive.heartbeat
        ~send:(fun () -> Client.ping fe)
        ka ~clock:clk ~node:"fe" ~period:(Simtime.ms 1) ~until:(Simtime.ms 20);
    ];
  check Alcotest.bool "no spurious failover across the grey period" true
    (Keepalive.alive ka "fe" ~now:(Clock.now clk));
  check Alcotest.bool "the grey period did cost retries" true (Client.fault_retries fe > 0)

(* -- fault-schedule checking -------------------------------------------------- *)

let subject () =
  match Asym_check.Subject.find "pbptree" with
  | Some s -> s
  | None -> Alcotest.fail "pbptree subject not registered"

let test_fuzz_with_faults () =
  let o = Asym_check.Fuzz.run ~clients:2 ~drop:0.05 (subject ()) ~steps:120 ~seed:11L in
  check
    Alcotest.(list string)
    (Fmt.str "%a" Asym_check.Fuzz.pp_outcome o)
    [] o.Asym_check.Fuzz.failures;
  check Alcotest.bool "losses happened" true (o.Asym_check.Fuzz.verb_timeouts > 0);
  check Alcotest.bool "retries happened" true (o.Asym_check.Fuzz.fault_retries > 0);
  check Alcotest.bool "grey periods armed" true (o.Asym_check.Fuzz.grey_periods > 0)

let test_fuzz_fault_determinism () =
  let run () = Asym_check.Fuzz.run ~clients:2 ~drop:0.08 (subject ()) ~steps:80 ~seed:9L in
  let a = run () and b = run () in
  check Alcotest.int "same retries" a.Asym_check.Fuzz.fault_retries b.Asym_check.Fuzz.fault_retries;
  check Alcotest.int "same timeouts" a.Asym_check.Fuzz.verb_timeouts b.Asym_check.Fuzz.verb_timeouts;
  check
    Alcotest.(list string)
    "same failures" a.Asym_check.Fuzz.failures b.Asym_check.Fuzz.failures

let test_sweep_with_faults () =
  (* Crash points compounded with transient loss: every recovery must
     still validate against the reference model. *)
  let o = Asym_check.Explorer.sweep ~stride:7 ~tear:false ~drop:0.05 (subject ()) ~ops:12 ~seed:3L in
  check Alcotest.int
    (Fmt.str "%a" Asym_check.Explorer.pp_outcome o)
    0
    (List.length o.Asym_check.Explorer.failures);
  check Alcotest.bool "sweep ran points" true (o.Asym_check.Explorer.points_run > 0)

let () =
  Alcotest.run "fault"
    [
      ( "verbs",
        [
          Alcotest.test_case "timeout raised and charged" `Quick test_verb_timeout_raised;
          Alcotest.test_case "fault timeout override" `Quick test_fault_timeout_override;
          Alcotest.test_case "atomics lose request only" `Quick test_atomic_loses_request_only;
          Alcotest.test_case "unsignaled exempt" `Quick test_unsignaled_exempt;
          Alcotest.test_case "grey window" `Quick test_grey_window;
          Alcotest.test_case "seeded injection reproducible" `Quick
            test_seeded_injection_reproducible;
        ] );
      ( "client-retry",
        [
          Alcotest.test_case "survives 20% loss" `Quick test_client_survives_faults;
          Alcotest.test_case "retry counts reproducible" `Quick test_retry_counts_reproducible;
          Alcotest.test_case "reconnect after budget" `Quick test_reconnect_after_budget;
          Alcotest.test_case "fault_retry conservation" `Quick test_fault_retry_conservation;
        ] );
      ( "keepalive",
        [ Alcotest.test_case "rides out grey period" `Quick test_keepalive_rides_out_grey_period ]
      );
      ( "check",
        [
          Alcotest.test_case "fuzz under faults" `Slow test_fuzz_with_faults;
          Alcotest.test_case "fuzz fault determinism" `Slow test_fuzz_fault_determinism;
          Alcotest.test_case "sweep under faults" `Slow test_sweep_with_faults;
        ] );
    ]
