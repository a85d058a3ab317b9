(* Conformance tests for the Table 1 API surface and the §4 persistency
   semantics, stated as directly as the paper states them:

   - rnvm_read: "A read can return data that is not yet persisted, but if
     there is a persistent fence before the read, it should return the
     persisted data produced before the fence."
   - rnvm_write (op-logged): "When a write (update) returns, the data
     should always be persisted in the back-end NVM."
   - rnvm_tx_write: all-or-nothing batches of memory logs.
   - rnvm_malloc / rnvm_free: remote allocation through the two-tier path.
   - writer_(un)lock / reader_(un)lock: SWMR synchronization. *)

open Asym_sim
open Asym_core

let check = Alcotest.check
let lat = Latency.default

let mk () =
  let bk =
    Backend.create ~name:"bk" ~max_sessions:4 ~memlog_cap:(512 * 1024) ~oplog_cap:(256 * 1024)
      ~slab_size:4096 ~capacity:(24 * 1024 * 1024) lat
  in
  (bk, Client.connect ~name:"fe" (Client.rcb ~batch_size:64 ()) bk ~clock:(Clock.create ()))

(* -- rnvm_read / rnvm_write ------------------------------------------------ *)

let test_read_returns_unpersisted_own_writes () =
  let _, fe = mk () in
  let h = Client.register_ds fe "d" in
  let addr = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr (Bytes.of_string "not-yet-durable");
  (* No flush yet: the read still returns the new data (paper §4.1). *)
  check Alcotest.string "read own unpersisted write" "not-yet-durable"
    (Bytes.to_string (Client.read fe ~addr ~len:15))

let test_fence_makes_writes_globally_visible () =
  let bk, fe = mk () in
  let h = Client.register_ds fe "d" in
  let addr = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr (Bytes.of_string "fenced");
  Client.op_end fe ~ds:h.Types.id;
  Client.persist_fence fe;
  (* After the fence the data area itself holds the bytes: any other
     front-end (or a restarted back-end) observes them. *)
  check Alcotest.string "visible in the data area" "fenced"
    (Bytes.to_string (Asym_nvm.Device.read (Backend.device bk) ~addr ~len:6));
  let fe2 = Client.connect ~name:"fe2" (Client.r ()) bk ~clock:(Clock.create ()) in
  check Alcotest.string "visible to another front-end" "fenced"
    (Bytes.to_string (Client.read fe2 ~addr ~len:6))

let test_oplogged_write_survives_crash_when_op_returns () =
  (* With the operation log, a write "returns" once its op record is
     durable — even though its memory logs are still buffered. *)
  let _, fe = mk () in
  let module St = Asym_structs.Pstack.Make (Client) in
  let st = St.attach fe ~name:"s" in
  St.push st (Bytes.of_string "acked");
  (* Returned; now crash with the memory logs unflushed. *)
  Client.crash fe;
  let ops = Client.recover fe in
  check Alcotest.int "the acked push is recoverable" 1 (List.length ops)

(* -- rnvm_tx_write: all-or-nothing ------------------------------------------ *)

let test_tx_write_atomicity_under_torn_write () =
  let bk, fe = mk () in
  let h = Client.register_ds fe "d" in
  let a1 = Client.malloc fe 64 and a2 = Client.malloc fe 64 in
  (* Build a two-entry transaction by hand, write it torn, and restart:
     neither entry may be applied. *)
  let tx =
    Log.Tx.encode
      {
        Log.Tx.ds = h.Types.id;
        op_hi = 50L;
        entries =
          [
            Log.Mem_entry.make ~addr:a1 (Bytes.of_string "AAAA");
            Log.Mem_entry.make ~addr:a2 (Bytes.of_string "BBBB");
          ];
      }
  in
  let ring_base, _ = Backend.memlog_ring bk ~session:(Client.session fe) in
  (* The memory-log head is the LPN: every flush is replayed before it returns. *)
  let slot = Layout.session_slot (Backend.layout bk) ~session:(Client.session fe) in
  let lpn = Asym_nvm.Device.read_u64 (Backend.device bk) ~addr:(slot + Layout.slot_lpn) in
  Asym_nvm.Crashpoint.tear_next ~keep:(Bytes.length tx - 2);
  Asym_nvm.Device.write (Backend.device bk) ~addr:(ring_base + Int64.to_int lpn) tx;
  Backend.crash bk;
  ignore (Backend.restart bk);
  let dev = Backend.device bk in
  check Alcotest.bool "first entry not applied" true
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:a1 ~len:4) <> "AAAA");
  check Alcotest.bool "second entry not applied" true
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:a2 ~len:4) <> "BBBB")

let test_tx_write_applies_all_when_intact () =
  let bk, fe = mk () in
  let h = Client.register_ds fe "d" in
  let a1 = Client.malloc fe 64 and a2 = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr:a1 (Bytes.of_string "AAAA");
  Client.write fe ~ds:h.Types.id ~addr:a2 (Bytes.of_string "BBBB");
  Client.op_end fe ~ds:h.Types.id;
  Client.flush fe;
  let dev = Backend.device bk in
  check Alcotest.string "first applied" "AAAA" (Bytes.to_string (Asym_nvm.Device.read dev ~addr:a1 ~len:4));
  check Alcotest.string "second applied" "BBBB" (Bytes.to_string (Asym_nvm.Device.read dev ~addr:a2 ~len:4))

(* -- rnvm_malloc / rnvm_free -------------------------------------------------- *)

let test_malloc_returns_data_area_addresses () =
  let bk, fe = mk () in
  let l = Backend.layout bk in
  for _ = 1 to 200 do
    let a = Client.malloc fe 48 in
    if a < l.Layout.data_base || a >= l.Layout.capacity then
      Alcotest.failf "allocation outside the data area: %#x" a
  done

let test_free_enables_reuse () =
  let bk, fe = mk () in
  let before = Backend.used_slabs bk in
  let addrs = List.init 64 (fun _ -> Client.malloc fe 4096) in
  check Alcotest.bool "slabs consumed" true (Backend.used_slabs bk > before);
  List.iter (fun a -> Client.free fe a ~len:4096) addrs;
  Client.flush fe;
  (* Allocate again: the pool must not grow monotonically. *)
  let mid = Backend.used_slabs bk in
  let _ = List.init 64 (fun _ -> Client.malloc fe 4096) in
  check Alcotest.bool "freed space reused" true
    (Backend.used_slabs bk <= mid + 64)

(* -- locks ---------------------------------------------------------------------- *)

let test_writer_lock_mutual_exclusion_cost () =
  let bk, fe1 = mk () in
  let fe2 = Client.connect ~name:"fe2" (Client.r ()) bk ~clock:(Clock.create ~name:"fe2" ()) in
  let h1 = Client.register_ds fe1 "d" in
  let h2 = Client.register_ds fe2 "d" in
  let c1 = Client.clock fe1 and c2 = Client.clock fe2 in
  let t0 = Simtime.max (Clock.now c1) (Clock.now c2) in
  Clock.wait_until c1 t0;
  Clock.wait_until c2 t0;
  let released = ref 0 and acquired = ref 0 in
  Sched.run
    [
      Sched.client ~clock:c1 ~run:(fun () ->
          Client.writer_lock fe1 h1;
          Clock.advance c1 (Simtime.us 100);
          released := Clock.now c1;
          Client.writer_unlock fe1 h1);
      (* fe2 contends from the same start: its acquisition cannot complete
         before fe1's release. *)
      Sched.client ~clock:c2 ~run:(fun () ->
          Client.writer_lock fe2 h2;
          acquired := Clock.now c2;
          Client.writer_unlock fe2 h2);
    ];
  check Alcotest.bool "acquired after the holder's release" true (!acquired >= !released);
  check Alcotest.bool "waited longer than the holder" true
    (Client.lock_wait_ns fe2 > Client.lock_wait_ns fe1)

let test_reader_lock_retries_are_bounded () =
  let _, fe = mk () in
  let h = Client.register_ds fe "d" in
  let addr = Client.malloc fe 8 in
  (* With no writer at all, a read section validates on the first try. *)
  let before = Client.read_retries fe in
  let v = Client.read_section fe h (fun () -> Client.read_u64 fe addr) in
  check Alcotest.int64 "value" 0L v;
  check Alcotest.int "no retries" before (Client.read_retries fe)

(* -- fuzz: log scanning never misbehaves on arbitrary bytes --------------------- *)

let prop_tx_scan_total =
  QCheck.Test.make ~count:500 ~name:"Tx.scan is total on arbitrary buffers"
    QCheck.(pair (string_of_size Gen.(0 -- 256)) small_nat)
    (fun (junk, pos) ->
      let buf = Bytes.of_string junk in
      let pos = if Bytes.length buf = 0 then 0 else pos mod (Bytes.length buf + 1) in
      match Log.Tx.scan buf ~pos with
      | Log.Record (_, consumed) -> consumed > 0 && pos + consumed <= Bytes.length buf
      | Log.Torn | Log.Wrap | Log.Empty -> true)

let prop_op_scan_total =
  QCheck.Test.make ~count:500 ~name:"Op_entry.scan is total on arbitrary buffers"
    QCheck.(string_of_size Gen.(0 -- 256))
    (fun junk ->
      let buf = Bytes.of_string junk in
      match Log.Op_entry.scan buf ~pos:0 with
      | Log.Record (_, consumed) -> consumed > 0 && consumed <= Bytes.length buf
      | Log.Torn | Log.Wrap | Log.Empty -> true)

let () =
  Alcotest.run "table1"
    [
      ( "rnvm_read/write",
        [
          Alcotest.test_case "read sees unpersisted own writes" `Quick
            test_read_returns_unpersisted_own_writes;
          Alcotest.test_case "fence publishes writes" `Quick
            test_fence_makes_writes_globally_visible;
          Alcotest.test_case "op-logged write recoverable on return" `Quick
            test_oplogged_write_survives_crash_when_op_returns;
        ] );
      ( "rnvm_tx_write",
        [
          Alcotest.test_case "torn tx applies nothing" `Quick
            test_tx_write_atomicity_under_torn_write;
          Alcotest.test_case "intact tx applies everything" `Quick
            test_tx_write_applies_all_when_intact;
        ] );
      ( "rnvm_malloc/free",
        [
          Alcotest.test_case "addresses in data area" `Quick test_malloc_returns_data_area_addresses;
          Alcotest.test_case "free enables reuse" `Quick test_free_enables_reuse;
        ] );
      ( "locks",
        [
          Alcotest.test_case "writer mutual exclusion" `Quick test_writer_lock_mutual_exclusion_cost;
          Alcotest.test_case "reader validation, no writer" `Quick
            test_reader_lock_retries_are_bounded;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_tx_scan_total;
          QCheck_alcotest.to_alcotest prop_op_scan_total;
        ] );
    ]
