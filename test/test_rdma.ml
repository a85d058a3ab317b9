open Asym_sim
open Asym_nvm
open Asym_rdma

let check = Alcotest.check
let lat = Latency.default

let mk () =
  let dev = Device.create ~name:"backend" ~capacity:65536 lat in
  let nic = Timeline.create ~name:"nic" () in
  let clk = Clock.create ~name:"client" () in
  let conn = Verbs.connect ~client:clk ~remote_nic:nic ~remote_mem:dev lat in
  (dev, nic, clk, conn)

let test_write_then_read () =
  let _, _, _, conn = mk () in
  Verbs.write conn ~addr:128 (Bytes.of_string "payload");
  check Alcotest.string "roundtrip" "payload"
    (Bytes.to_string (Verbs.read conn ~addr:128 ~len:7))

let test_read_charges_rtt () =
  let _, _, clk, conn = mk () in
  ignore (Verbs.read conn ~addr:0 ~len:8);
  check Alcotest.bool "client paid at least one RTT" true
    (Clock.now clk >= lat.Latency.rdma_rtt_ns)

let test_write_durable_on_return () =
  let dev, _, _, conn = mk () in
  Verbs.write conn ~addr:0 (Bytes.of_string "D");
  (* The acked write is on the media when the verb returns. *)
  check Alcotest.string "durable" "D" (Bytes.to_string (Device.read dev ~addr:0 ~len:1))

let test_unsignaled_cheaper () =
  let _, _, clk1, conn1 = mk () in
  let _, _, clk2, conn2 = mk () in
  Verbs.write conn1 ~addr:0 (Bytes.create 64);
  Verbs.write_unsignaled conn2 ~addr:0 (Bytes.create 64);
  check Alcotest.bool "unsignaled much cheaper" true (Clock.now clk2 * 2 < Clock.now clk1)

let test_nic_queueing () =
  (* Two clients hammering one NIC must see queueing delays. *)
  let dev = Device.create ~name:"b" ~capacity:4096 lat in
  let nic = Timeline.create () in
  let c1 = Clock.create () and c2 = Clock.create () in
  let conn1 = Verbs.connect ~client:c1 ~remote_nic:nic ~remote_mem:dev lat in
  let conn2 = Verbs.connect ~client:c2 ~remote_nic:nic ~remote_mem:dev lat in
  Verbs.write conn1 ~addr:0 (Bytes.create 4096);
  Verbs.write conn2 ~addr:0 (Bytes.create 4096);
  (* conn2 posted at t=0 too, but the NIC was busy with conn1's 4 KB. *)
  check Alcotest.bool "second client queued" true (Clock.now c2 > Clock.now c1 / 2)

let test_cas_applies () =
  let dev, _, _, conn = mk () in
  Device.write_u64 dev ~addr:64 7L;
  let old = Verbs.compare_and_swap conn ~addr:64 ~expected:7L ~desired:8L in
  check Alcotest.int64 "old" 7L old;
  check Alcotest.int64 "new" 8L (Device.read_u64 dev ~addr:64)

let test_fetch_add_applies () =
  let dev, _, _, conn = mk () in
  let old = Verbs.fetch_add conn ~addr:64 3L in
  check Alcotest.int64 "old" 0L old;
  check Alcotest.int64 "new" 3L (Device.read_u64 dev ~addr:64)

let test_counters () =
  let _, _, _, conn = mk () in
  Verbs.write conn ~addr:0 (Bytes.create 10);
  ignore (Verbs.read conn ~addr:0 ~len:6);
  check Alcotest.int "ops" 2 (Verbs.ops_posted conn);
  check Alcotest.int "wire bytes" 16 (Verbs.bytes_on_wire conn)

let test_wire_len_override () =
  let _, _, clk1, conn1 = mk () in
  let _, _, clk2, conn2 = mk () in
  let big = Bytes.create 8192 in
  Verbs.write conn1 ~addr:0 big;
  Verbs.write ~wire_len:64 conn2 ~addr:0 big;
  check Alcotest.bool "optimized wire is cheaper" true (Clock.now clk2 < Clock.now clk1);
  (* Content still lands in full. *)
  check Alcotest.int "content intact" 8192
    (Bytes.length (Verbs.read conn2 ~addr:0 ~len:8192))

let test_larger_payload_costs_more () =
  let _, _, clk1, conn1 = mk () in
  let _, _, clk2, conn2 = mk () in
  ignore (Verbs.read conn1 ~addr:0 ~len:64);
  ignore (Verbs.read conn2 ~addr:0 ~len:16384);
  check Alcotest.bool "16K read slower than 64B" true (Clock.now clk2 > Clock.now clk1)

let () =
  Alcotest.run "rdma"
    [
      ( "verbs",
        [
          Alcotest.test_case "write then read" `Quick test_write_then_read;
          Alcotest.test_case "read charges rtt" `Quick test_read_charges_rtt;
          Alcotest.test_case "write durable on return" `Quick test_write_durable_on_return;
          Alcotest.test_case "unsignaled cheaper" `Quick test_unsignaled_cheaper;
          Alcotest.test_case "nic queueing" `Quick test_nic_queueing;
          Alcotest.test_case "cas" `Quick test_cas_applies;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add_applies;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "wire_len override" `Quick test_wire_len_override;
          Alcotest.test_case "payload scaling" `Quick test_larger_payload_costs_more;
        ] );
    ]
