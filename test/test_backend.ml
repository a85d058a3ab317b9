open Asym_sim
open Asym_core

let check = Alcotest.check
let lat = Latency.default
let cap = 8 * 1024 * 1024

let mk_backend ?(memlog_cap = 256 * 1024) ?(oplog_cap = 128 * 1024) ?(slab_size = 1024) () =
  Backend.create ~name:"bk" ~max_sessions:4 ~memlog_cap ~oplog_cap ~slab_size ~capacity:cap lat

let mk_client ?(cfg = Client.r ()) ?(name = "fe") bk =
  let clk = Clock.create ~name () in
  (Client.connect ~name cfg bk ~clock:clk, clk)

(* -- layout -------------------------------------------------------------- *)

let test_layout_roundtrip () =
  let bk = mk_backend () in
  let l = Backend.layout bk in
  let l' = Layout.load (Backend.device bk) in
  check Alcotest.bool "layout survives store/load" true (l = l')

let test_layout_too_small () =
  Alcotest.check_raises "tiny capacity rejected"
    (Invalid_argument "Layout.compute: capacity too small for fixed areas") (fun () ->
      ignore (Layout.compute ~capacity:4096 ~max_sessions:2 ()))

let test_layout_areas_disjoint () =
  let l = Backend.layout (mk_backend ()) in
  let open Layout in
  check Alcotest.bool "ordering" true
    (l.naming_base < l.sessions_base
    && l.sessions_base < l.meta_base
    && l.meta_base < l.bitmap_base
    && l.bitmap_base < l.memlog_base
    && l.memlog_base < l.oplog_base
    && l.oplog_base < l.data_base
    && l.data_base + (l.n_slabs * l.slab_size) <= l.capacity)

(* -- naming --------------------------------------------------------------- *)

let test_naming_persistence () =
  let bk = mk_backend () in
  let dev = Backend.device bk in
  let l = Backend.layout bk in
  let n = Naming.load dev ~base:l.Layout.naming_base ~len:l.Layout.naming_len in
  Naming.set n "tree-a" Types.Root 4242;
  Naming.set n "tree-a.lock" Types.Lock 4250;
  let n' = Naming.load dev ~base:l.Layout.naming_base ~len:l.Layout.naming_len in
  check Alcotest.bool "found root" true (Naming.find n' "tree-a" = Some (Types.Root, 4242));
  check Alcotest.bool "found lock" true (Naming.find n' "tree-a.lock" = Some (Types.Lock, 4250));
  check Alcotest.bool "missing is none" true (Naming.find n' "nope" = None)

let test_naming_remove () =
  let bk = mk_backend () in
  let dev = Backend.device bk in
  let l = Backend.layout bk in
  let n = Naming.load dev ~base:l.Layout.naming_base ~len:l.Layout.naming_len in
  Naming.set n "x" Types.Meta 1;
  Naming.remove n "x";
  let n' = Naming.load dev ~base:l.Layout.naming_base ~len:l.Layout.naming_len in
  check Alcotest.bool "removed" true (Naming.find n' "x" = None)

(* -- slab allocator --------------------------------------------------------- *)

let test_backend_alloc_basic () =
  let bk = mk_backend () in
  let dev = Backend.device bk in
  let l = Backend.layout bk in
  let a = Backend_alloc.load dev l in
  let x = Backend_alloc.alloc a ~slabs:1 in
  let y = Backend_alloc.alloc a ~slabs:1 in
  check Alcotest.bool "distinct" true (x <> y && x <> None && y <> None);
  (match x with
  | Some addr ->
      Backend_alloc.free a ~addr ~slabs:1;
      Alcotest.check_raises "double free"
        (Invalid_argument "Backend_alloc.free: double free") (fun () ->
          Backend_alloc.free a ~addr ~slabs:1)
  | None -> Alcotest.fail "alloc failed")

let test_backend_alloc_contiguous () =
  let bk = mk_backend () in
  let a = Backend_alloc.load (Backend.device bk) (Backend.layout bk) in
  match Backend_alloc.alloc a ~slabs:8 with
  | None -> Alcotest.fail "run alloc failed"
  | Some addr ->
      let l = Backend.layout bk in
      check Alcotest.int "aligned" 0 ((addr - l.Layout.data_base) mod l.Layout.slab_size);
      Backend_alloc.free a ~addr ~slabs:8;
      check Alcotest.int "all back" 0 (Backend_alloc.used_slabs a)

let test_backend_alloc_exhaustion_and_recovery_from_bitmap () =
  let bk = mk_backend () in
  let dev = Backend.device bk in
  let l = Backend.layout bk in
  let a = Backend_alloc.load dev l in
  let n = Backend_alloc.total_slabs a in
  for _ = 1 to n do
    match Backend_alloc.alloc a ~slabs:1 with
    | Some _ -> ()
    | None -> Alcotest.fail "premature exhaustion"
  done;
  check Alcotest.bool "now exhausted" true (Backend_alloc.alloc a ~slabs:1 = None);
  (* A reloaded allocator must agree: the bitmap is the durable truth. *)
  let a' = Backend_alloc.load dev l in
  check Alcotest.int "used persisted" n (Backend_alloc.used_slabs a');
  check Alcotest.bool "still exhausted after reload" true (Backend_alloc.alloc a' ~slabs:1 = None)

(* -- RPC / sessions ----------------------------------------------------------- *)

let test_rpc_register_ds_idempotent () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let h1 = Client.register_ds fe "stack:s1" in
  let h2 = Client.register_ds fe "stack:s1" in
  check Alcotest.bool "same handle" true (h1 = h2);
  let fe2, _ = mk_client ~name:"fe2" bk in
  let h3 = Client.register_ds fe2 "stack:s1" in
  check Alcotest.int "shared ds id" h1.Types.id h3.Types.id;
  check Alcotest.int "shared root" h1.Types.root h3.Types.root

let test_rpc_lookup_missing () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  check Alcotest.bool "missing" true (Client.lookup_ds fe "ghost" = None);
  ignore (Client.register_ds fe "real");
  check Alcotest.bool "present" true (Client.lookup_ds fe "real" <> None)

let test_rpc_costs_time () =
  let bk = mk_backend () in
  let fe, clk = mk_client bk in
  let before = Clock.now clk in
  ignore (Client.register_ds fe "x");
  check Alcotest.bool "rpc costs >= 2 rtt" true
    (Clock.now clk - before >= 2 * lat.Latency.rdma_rtt_ns)

let test_session_limit () =
  let bk = mk_backend () in
  let mk_ok () = try Some (fst (mk_client bk)) with Failure _ -> None in
  (* max_sessions = 4 *)
  let opened = List.filter_map (fun _ -> mk_ok ()) [ 1; 2; 3; 4; 5 ] in
  check Alcotest.int "only 4 sessions" 4 (List.length opened);
  (* Closing a session frees its slot for a new front-end. *)
  (match opened with c :: _ -> Client.close c | [] -> ());
  check Alcotest.bool "slot reusable after close" true (mk_ok () <> None)

let test_close_guards_use_after () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let addr = Client.malloc fe 64 in
  Client.close fe;
  Alcotest.check_raises "use after close" (Failure "fe: client is crashed") (fun () ->
      ignore (Client.read fe ~addr ~len:8))

(* -- write path / drain --------------------------------------------------------- *)

let test_logged_write_lands_in_data_area () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr (Bytes.of_string "hello-world");
  (* Before flush: remote data area still empty, but our own read sees it. *)
  check Alcotest.string "read own write" "hello-world"
    (Bytes.to_string (Client.read fe ~addr ~len:11));
  Client.op_end fe ~ds:h.Types.id;
  (* batch_size = 1 -> op_end flushed and the backend replayed. *)
  let dev = Backend.device bk in
  check Alcotest.string "replayed into data area" "hello-world"
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr ~len:11));
  check Alcotest.int "one tx replayed" 1 (Backend.replayed_txs bk)

let test_batching_defers_replay () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 64 in
  for i = 1 to 7 do
    ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
    Client.write_u64 fe ~ds:h.Types.id (addr + (8 * (i mod 4))) (Int64.of_int i);
    Client.op_end fe ~ds:h.Types.id
  done;
  check Alcotest.int "no tx yet" 0 (Backend.replayed_txs bk);
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write_u64 fe ~ds:h.Types.id addr 99L;
  Client.op_end fe ~ds:h.Types.id;
  check Alcotest.int "flushed at batch boundary" 1 (Backend.replayed_txs bk);
  check Alcotest.int64 "value landed" 99L
    (Asym_nvm.Device.read_u64 (Backend.device bk) ~addr)

let test_seqno_bumped_twice_per_tx () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 8 in
  check Alcotest.int64 "sn starts 0" 0L (Backend.seqno bk ~ds:h.Types.id);
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write_u64 fe ~ds:h.Types.id addr 1L;
  Client.op_end fe ~ds:h.Types.id;
  check Alcotest.int64 "sn even after tx" 2L (Backend.seqno bk ~ds:h.Types.id)

let test_memlog_ring_wraps () =
  let bk = mk_backend ~memlog_cap:4096 () in
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 256 in
  (* Each op writes ~128 B of log; push enough to wrap the 4 KB ring. *)
  for i = 1 to 200 do
    ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
    Client.write fe ~ds:h.Types.id ~addr (Bytes.make 100 (Char.chr (i mod 256)));
    Client.op_end fe ~ds:h.Types.id
  done;
  check Alcotest.int "all txs replayed" 200 (Backend.replayed_txs bk);
  check Alcotest.string "last value wins"
    (String.make 100 (Char.chr 200))
    (Bytes.to_string (Asym_nvm.Device.read (Backend.device bk) ~addr ~len:100))

(* Replay walks the ring through one reused window that starts at 4 KiB
   and grows while a frame overruns it; later, smaller frames are read
   into the grown buffer with stale bytes behind them. Every frame must
   still land, on the back-end and on its mirror. *)
let test_large_tx_replays_through_growth () =
  let bk = mk_backend () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:cap lat in
  Backend.attach_mirror bk m;
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let commit addr b =
    ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
    Client.write fe ~ds:h.Types.id ~addr b;
    Client.op_end fe ~ds:h.Types.id
  in
  let small = Client.malloc fe 64 and big = Client.malloc fe 48_000 in
  let writes =
    [
      (small, Bytes.make 64 's');
      (big, Bytes.make 40_000 'b');
      (small, Bytes.make 64 't');
      (big + 1000, Bytes.make 20_000 'c');
      (small, Bytes.make 64 'u');
    ]
  in
  List.iter (fun (addr, b) -> commit addr b) writes;
  check Alcotest.int "every tx replayed" (List.length writes) (Backend.replayed_txs bk);
  let dev = Backend.device bk in
  check Alcotest.string "small landed" (String.make 64 'u')
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:small ~len:64));
  check Alcotest.string "large landed"
    (String.make 1000 'b' ^ String.make 20_000 'c' ^ String.make 19_000 'b')
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:big ~len:40_000));
  check Alcotest.bool "mirror image equals the back-end's" true
    (Bytes.equal (Asym_nvm.Device.snapshot dev) (Asym_nvm.Device.snapshot (Mirror.device m)))

(* One frame bigger than 64 KiB, written straight into a session's ring,
   with entries that straddle 16 KiB and 64 KiB and overlap each other.
   The replay walk grows its window from 4 KiB while the frame overruns
   it and writes every entry from the window: the data area and the
   mirror must hold what applying the entries one by one gives, after one
   device read per window (4 KiB, 16 KiB, 64 KiB, then the whole 256 KiB
   ring, which also holds the zero byte after the frame) and one for the
   op-log GC walk. Each growth reads only the bytes past the window it
   already holds, so the memory-log ring is read once. *)
let test_replay_frame_past_two_windows () =
  let bk = mk_backend () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:cap lat in
  Backend.attach_mirror bk m;
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let region = Client.malloc fe 16_384 in
  let rng = Asym_util.Rng.create ~seed:5L in
  let entries =
    List.init 200 (fun i ->
        let len = 1 + Asym_util.Rng.int rng 900 in
        let addr = region + Asym_util.Rng.int rng (16_384 - len) in
        Log.Mem_entry.make ~addr (Bytes.make len (Char.chr (33 + (i mod 90)))))
  in
  let frame = Log.Tx.encode { Log.Tx.ds = h.Types.id; op_hi = 1L; entries } in
  let n = Bytes.length frame in
  check Alcotest.bool "frame past 64 KiB" true (n > 65_536 && n < 256 * 1024);
  (match Log.Tx.scan frame ~pos:0 with
  | Log.Record (v, _) ->
      let straddles w =
        let hit = ref false in
        Log.Tx.iter_entries frame v (fun ~addr:_ ~pos ~len -> if pos < w && pos + len > w then hit := true);
        !hit
      in
      check Alcotest.bool "an entry straddles 16 KiB" true (straddles 16_384);
      check Alcotest.bool "an entry straddles 64 KiB" true (straddles 65_536)
  | _ -> Alcotest.fail "expected record");
  let dev = Backend.device bk in
  let expect = Asym_nvm.Device.read dev ~addr:region ~len:16_384 in
  List.iter
    (fun { Log.Mem_entry.addr; value; _ } ->
      Bytes.blit value 0 expect (addr - region) (Bytes.length value))
    entries;
  let ring_base, _ = Backend.memlog_ring bk ~session:(Client.session fe) in
  Asym_nvm.Device.write dev ~addr:ring_base frame;
  let reads0 = Asym_nvm.Device.reads_performed dev in
  let read_bytes =
    Asym_obs.set_enabled true;
    Asym_obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        Asym_obs.reset ();
        Asym_obs.set_enabled false)
      (fun () ->
        Backend.drain_session bk ~session:(Client.session fe) ~arrival:0;
        Asym_obs.Registry.counter_value
          ~labels:[ ("dev", Asym_nvm.Device.name dev); ("op", "read") ]
          "nvm.media_bytes")
  in
  check Alcotest.int "device reads" 5 (Asym_nvm.Device.reads_performed dev - reads0);
  check Alcotest.int "bytes read: the memory-log ring once, one op-log window"
    ((256 * 1024) + 4096) read_bytes;
  check Alcotest.int "one tx replayed" 1 (Backend.replayed_txs bk);
  check Alcotest.int "every entry replayed" 200 (Backend.replayed_entries bk);
  check Alcotest.string "data area" (Bytes.to_string expect)
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:region ~len:16_384));
  check Alcotest.string "mirror" (Bytes.to_string expect)
    (Bytes.to_string (Asym_nvm.Device.read (Mirror.device m) ~addr:region ~len:16_384))

(* One drain walks frames on both sides of the memory-log wrap: it zeroes
   the whole walked span and leaves the LPN where the walk stopped, on
   the back-end and on its mirror. *)
let test_drain_across_the_wrap_truncates () =
  let ring_cap = 4096 in
  let bk = mk_backend ~memlog_cap:ring_cap () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:cap lat in
  Backend.attach_mirror bk m;
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let region = Client.malloc fe 4096 in
  let session = Client.session fe in
  let ring_base, _ = Backend.memlog_ring bk ~session in
  let dev = Backend.device bk in
  let lpn () =
    let slot = Layout.session_slot (Backend.layout bk) ~session in
    Int64.to_int (Asym_nvm.Device.read_u64 dev ~addr:(slot + Layout.slot_lpn))
  in
  let frame op_hi off len c =
    Log.Tx.encode
      {
        Log.Tx.ds = h.Types.id;
        op_hi = Int64.of_int op_hi;
        entries = [ Log.Mem_entry.make ~addr:(region + off) (Bytes.make len c) ];
      }
  in
  let put at b = Asym_nvm.Device.write dev ~addr:(ring_base + at) b in
  (* A first drain moves the LPN near the ring's end. *)
  put 0 (frame 100 0 3400 'f');
  Backend.drain_session bk ~session ~arrival:0;
  let from = lpn () in
  check Alcotest.bool "LPN near the end" true (from > 3400 && from < 3500);
  (* A frame that fits, the marker, then two frames from the ring base. *)
  let a = frame 101 0 200 'a' and b = frame 102 1000 400 'b' and c = frame 103 2000 300 'c' in
  put from a;
  let marker = from + Bytes.length a in
  check Alcotest.bool "the next frame does not fit" true
    (marker + Bytes.length b + 1 > ring_cap);
  put marker Log.wrap_marker;
  put 0 b;
  put (Bytes.length b) c;
  let { Log.head = upto; torn; lap_end } =
    Log.walk ~scan:Log.Tx.scan ~cap:ring_cap ~from
      ~read:(fun ~pos ~len -> Asym_nvm.Device.read dev ~addr:(ring_base + pos) ~len)
      (fun _ ~pos:_ ~len:_ -> ())
  in
  check Alcotest.bool "the walk ends at a zero byte" false torn;
  check Alcotest.int "the lap ends one past the marker" (marker + 1) lap_end;
  check Alcotest.int "past the three frames" (Bytes.length b + Bytes.length c) upto;
  let txs = Backend.replayed_txs bk in
  Backend.drain_session bk ~session ~arrival:0;
  check Alcotest.int "three frames replayed" (txs + 3) (Backend.replayed_txs bk);
  check Alcotest.int "LPN is the walk's stop" upto (lpn ());
  let zeros = String.make ring_cap '\000' in
  check Alcotest.string "ring zeroed" zeros
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:ring_base ~len:ring_cap));
  check Alcotest.string "mirror ring zeroed" zeros
    (Bytes.to_string (Asym_nvm.Device.read (Mirror.device m) ~addr:ring_base ~len:ring_cap));
  check Alcotest.string "frames after the wrap applied" (String.make 300 'c')
    (Bytes.to_string (Asym_nvm.Device.read dev ~addr:(region + 2000) ~len:300))

let test_drain_busies_backend_cpu () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 64 in
  let busy0 = Timeline.busy_total (Backend.cpu bk) in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write_u64 fe ~ds:h.Types.id addr 5L;
  Client.op_end fe ~ds:h.Types.id;
  check Alcotest.bool "cpu worked" true (Timeline.busy_total (Backend.cpu bk) > busy0)

(* -- locks ------------------------------------------------------------------------ *)

(* Both writers ask for the lock at the same virtual time; only the CAS
   spin on the lock word orders their holds. *)
let test_writer_lock_serializes () =
  let bk = mk_backend () in
  let fe1, c1 = mk_client ~name:"w1" bk in
  let fe2, c2 = mk_client ~name:"w2" bk in
  let h = Client.register_ds fe1 "t" in
  let h2 = Client.register_ds fe2 "t" in
  let t0 = Simtime.max (Clock.now c1) (Clock.now c2) in
  Clock.wait_until c1 t0;
  Clock.wait_until c2 t0;
  let released = ref 0 and acquired = ref 0 in
  Sched.run
    [
      Sched.client ~clock:c1 ~run:(fun () ->
          Client.writer_lock fe1 h;
          (* fe1 holds the lock for 50 us of work. *)
          Clock.advance c1 (Simtime.us 50);
          released := Clock.now c1;
          Client.writer_unlock fe1 h);
      Sched.client ~clock:c2 ~run:(fun () ->
          Client.writer_lock fe2 h2;
          acquired := Clock.now c2;
          Client.writer_unlock fe2 h2);
    ];
  check Alcotest.bool "second writer acquires after the release" true (!acquired >= !released);
  check Alcotest.bool "second writer waited longer than the holder" true
    (Client.lock_wait_ns fe2 > Client.lock_wait_ns fe1)

(* Replay changes media (and bumps the SN) when the writer posts its
   transaction, but books its CPU slot behind whatever the back-end CPU
   has queued. A reader whose section straddles the post must retry even
   though the replay's CPU slot lies far after the section. *)
let test_reader_straddling_queued_replay_retries () =
  let bk = mk_backend () in
  let wr, wclk = mk_client ~name:"w" bk in
  let rd, rclk = mk_client ~name:"r" bk in
  let h = Client.register_ds wr "t" in
  let hr = Client.register_ds rd "t" in
  let addr = Client.malloc wr 8 in
  let commit v =
    ignore (Client.op_begin wr ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
    Client.write_u64 wr ~ds:h.Types.id addr v;
    Client.op_end wr ~ds:h.Types.id
  in
  commit 1L;
  let t0 = Simtime.max (Clock.now wclk) (Clock.now rclk) in
  Clock.wait_until wclk t0;
  Clock.wait_until rclk t0;
  ignore (Timeline.acquire (Backend.cpu bk) ~at:t0 ~dur:(Simtime.ms 10));
  let seen = ref 0L in
  Sched.run
    [
      Sched.client ~clock:wclk ~run:(fun () ->
          Clock.advance wclk (Simtime.us 10);
          commit 2L);
      Sched.client ~clock:rclk ~run:(fun () ->
          seen :=
            Client.read_section rd hr (fun () ->
                let v = Client.read_u64 rd addr in
                Clock.advance rclk (Simtime.us 60);
                v));
    ];
  check Alcotest.int "reader retried once" 1 (Client.read_retries rd);
  check Alcotest.int64 "reader returned the new value" 2L !seen

let () =
  Alcotest.run "backend"
    [
      ( "layout",
        [
          Alcotest.test_case "store/load roundtrip" `Quick test_layout_roundtrip;
          Alcotest.test_case "too small rejected" `Quick test_layout_too_small;
          Alcotest.test_case "areas disjoint" `Quick test_layout_areas_disjoint;
        ] );
      ( "naming",
        [
          Alcotest.test_case "persistence" `Quick test_naming_persistence;
          Alcotest.test_case "remove" `Quick test_naming_remove;
        ] );
      ( "slab-alloc",
        [
          Alcotest.test_case "basic" `Quick test_backend_alloc_basic;
          Alcotest.test_case "contiguous runs" `Quick test_backend_alloc_contiguous;
          Alcotest.test_case "exhaustion + bitmap recovery" `Quick
            test_backend_alloc_exhaustion_and_recovery_from_bitmap;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "register_ds idempotent" `Quick test_rpc_register_ds_idempotent;
          Alcotest.test_case "lookup missing" `Quick test_rpc_lookup_missing;
          Alcotest.test_case "rpc costs time" `Quick test_rpc_costs_time;
          Alcotest.test_case "session limit" `Quick test_session_limit;
          Alcotest.test_case "use after close guarded" `Quick test_close_guards_use_after;
        ] );
      ( "write-path",
        [
          Alcotest.test_case "logged write lands" `Quick test_logged_write_lands_in_data_area;
          Alcotest.test_case "batching defers replay" `Quick test_batching_defers_replay;
          Alcotest.test_case "seqno bumped" `Quick test_seqno_bumped_twice_per_tx;
          Alcotest.test_case "memlog ring wraps" `Quick test_memlog_ring_wraps;
          Alcotest.test_case "drain busies cpu" `Quick test_drain_busies_backend_cpu;
          Alcotest.test_case "drain across the wrap zeroes the ring" `Quick
            test_drain_across_the_wrap_truncates;
          Alcotest.test_case "frame past two windows replays in place" `Quick
            test_replay_frame_past_two_windows;
          Alcotest.test_case "large tx replays through window growth" `Quick
            test_large_tx_replays_through_growth;
        ] );
      ( "locks",
        [
          Alcotest.test_case "writer lock serializes" `Quick test_writer_lock_serializes;
          Alcotest.test_case "reader straddling a queued replay retries" `Quick
            test_reader_straddling_queued_replay_retries;
        ] );
    ]
