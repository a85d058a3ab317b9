(* Wall-clock micro-benchmarks of the primitives each experiment leans on,
   one Bechamel test per table/figure. These measure the real OCaml
   implementation cost (the experiment tables report virtual time). *)

open Bechamel
open Toolkit
open Asym_core

let lat = Asym_sim.Latency.default

let setup () =
  let bk =
    Backend.create ~name:"micro" ~max_sessions:4 ~memlog_cap:(4 * 1024 * 1024)
      ~oplog_cap:(1024 * 1024) ~slab_size:4096 ~capacity:(64 * 1024 * 1024) lat
  in
  let clock = Asym_sim.Clock.create ~name:"fe" () in
  let c = Client.connect ~name:"fe" (Client.rcb ~batch_size:64 ()) bk ~clock in
  (bk, c)

let tests () =
  let bk, c = setup () in
  let h = Client.register_ds c "micro" in
  let addr = Client.malloc c 64 in
  ignore (Client.op_begin c ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write c ~ds:h.Types.id ~addr (Bytes.make 64 'x');
  Client.op_end c ~ds:h.Types.id;
  Client.flush c;
  let module Bpt = Asym_structs.Pbptree.Make (Client) in
  let bpt = Bpt.attach c ~name:"micro.bpt" in
  for i = 0 to 999 do
    Bpt.put bpt ~key:(Int64.of_int i) ~value:(Bytes.make 64 'v')
  done;
  Client.flush c;
  let rng = Asym_util.Rng.create ~seed:1L in
  let zipf = Asym_util.Zipf.create ~theta:0.99 ~n:100_000 (Asym_util.Rng.create ~seed:2L) in
  let tx =
    {
      Log.Tx.ds = 1;
      op_hi = 7L;
      entries = List.init 8 (fun i -> Log.Mem_entry.make ~addr:(i * 64) (Bytes.make 64 'e'));
    }
  in
  let tx_bytes = Log.Tx.encode tx in
  (* A second front-end whose overlay holds a batch of 64 pending 512-byte
     node writes (an open operation, so nothing flushes), plus one cached
     node that is not pending: the RCB write path's reads. *)
  let node = 512 in
  let w =
    Client.connect ~name:"fe-batch" (Client.rcb ~batch_size:1024 ()) bk
      ~clock:(Asym_sim.Clock.create ~name:"fe-batch" ())
  in
  let hw = Client.register_ds w "micro.batch" in
  let cached = Client.malloc w node in
  ignore (Client.op_begin w ~ds:hw.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write w ~ds:hw.Types.id ~addr:cached (Bytes.make node 'c');
  Client.op_end w ~ds:hw.Types.id;
  Client.flush w;
  ignore (Client.read w ~addr:cached ~len:node);
  let pending = Array.init 64 (fun _ -> Client.malloc w node) in
  ignore (Client.op_begin w ~ds:hw.Types.id ~optype:1 ~params:Bytes.empty);
  Array.iter (fun addr -> Client.write w ~ds:hw.Types.id ~addr (Bytes.make node 'n')) pending;
  (* A full 4 MiB Hybrid cache of 256-byte pages (the front-end default),
     a standalone overlay holding a 1,024-op batch of 512-byte nodes, and
     a timeline booked in time order. *)
  let page = Bytes.make 256 'p' in
  let cache () =
    Cache.create ~policy:Cache.Hybrid ~page_size:256 ~capacity_bytes:(4 * 1024 * 1024)
      (Asym_util.Rng.create ~seed:3L)
  in
  let full = cache () and sparse = cache () in
  let pages = Cache.capacity_pages full in
  for id = 0 to pages - 1 do
    ignore (Cache.insert full id page ~len:256)
  done;
  let ov = Overlay.create () and ov_node = Bytes.make node 'o' in
  for k = 0 to 1023 do
    Overlay.add ov ~addr:(k * node) ov_node
  done;
  (* A frame writer appending 64-byte entries under two structures in
     turn, reset every 1,024 entries (a batch); and a miss as the
     front-end serves it: read the page from the device into a scratch
     buffer, then copy it into a full cache. *)
  let frames = Log.Frame.create () and entry = Bytes.make 64 'f' in
  let dev = Backend.device bk and scratch = Bytes.create 256 in
  let tl = Asym_sim.Timeline.create () in
  let i = ref 0 and j = ref 0 and k = ref 0 and next_id = ref pages and at = ref 0 in
  [
    (* Table 2: the allocator fast path. *)
    Test.make ~name:"table2/two-tier-alloc-free"
      (Staged.stage (fun () ->
           let a = Client.malloc c 64 in
           Client.free c a ~len:64));
    (* Table 3: one cached read (the dominant RC/RCB operation). *)
    Test.make ~name:"table3/cached-read"
      (Staged.stage (fun () -> ignore (Client.read c ~addr ~len:64)));
    (* Figure 6: one logged write (memory-log append into the overlay). *)
    Test.make ~name:"fig6/mem-log-write"
      (Staged.stage (fun () ->
           incr i;
           Client.write c ~ds:h.Types.id ~addr (Bytes.make 64 (Char.chr (!i land 0xff)));
           if !i land 63 = 0 then Client.flush c));
    (* Figure 6, RCB: a 512-byte node read while the overlay holds a
       batch — served from the overlay, or from the cache beside it. *)
    Test.make ~name:"fig6/node-read-pending"
      (Staged.stage (fun () ->
           incr j;
           ignore (Client.read w ~addr:pending.(!j land 63) ~len:node)));
    Test.make ~name:"fig6/node-read-cached"
      (Staged.stage (fun () -> ignore (Client.read w ~addr:cached ~len:node)));
    (* Figure 7: B+Tree lookup through the cache. *)
    Test.make ~name:"fig7/bptree-find"
      (Staged.stage (fun () ->
           ignore (Bpt.find bpt ~key:(Int64.of_int (Asym_util.Rng.int rng 1000)))));
    (* Figure 12: the Zipf generator itself. *)
    Test.make ~name:"fig12/zipf-next" (Staged.stage (fun () -> ignore (Asym_util.Zipf.next zipf)));
    (* Figure 13: trace value sizing + crc of a log record, and of a
       frame-sized memory-log write. *)
    Test.make ~name:"fig13/crc32-4k"
      (Staged.stage
         (let b = Bytes.make 4096 'z' in
          fun () -> ignore (Asym_util.Crc32.digest_bytes b)));
    Test.make ~name:"fig13/crc32-64k"
      (Staged.stage
         (let b = Bytes.make 65536 'z' in
          fun () -> ignore (Asym_util.Crc32.digest_bytes b)));
    (* §4.2: transaction encode, scan and a walk over its entries. *)
    Test.make ~name:"tx/encode-scan"
      (Staged.stage (fun () ->
           let b = Log.Tx.encode tx in
           match Log.Tx.scan b ~pos:0 with
           | Log.Record (v, _) -> Log.Tx.iter_entries b v (fun ~addr:_ ~pos:_ ~len:_ -> ())
           | _ -> assert false));
    (* §4.3: one memory-log entry laid out at write time. *)
    Test.make ~name:"log/frame-append"
      (Staged.stage (fun () ->
           incr i;
           if !i land 1023 = 0 then Log.Frame.reset frames;
           Log.Frame.append frames ~ds:(!i lsr 4 land 1) ~addr:(!i * 64) entry));
    (* §7.2: torn-tail scan of an intact record. *)
    Test.make ~name:"recovery/tx-scan" (Staged.stage (fun () -> ignore (Log.Tx.scan tx_bytes ~pos:0)));
    (* §4.4: the front-end page cache and the write overlay beside it. *)
    Test.make ~name:"cache/hit"
      (Staged.stage (fun () ->
           incr k;
           ignore (Cache.find full (!k land (pages - 1)))));
    Test.make ~name:"cache/insert-evict-hybrid"
      (Staged.stage (fun () ->
           incr next_id;
           ignore (Cache.insert full !next_id page ~len:256)));
    Test.make ~name:"cache/miss-insert"
      (Staged.stage (fun () ->
           incr next_id;
           Asym_nvm.Device.read_into dev ~addr:(!next_id land 0xFFFF * 256) scratch ~pos:0 ~len:256;
           ignore (Cache.insert full !next_id scratch ~len:256)));
    (* Refills 10% of the pages, then clears: the clear of a read-section
       retry. *)
    Test.make ~name:"cache/clear"
      (Staged.stage (fun () ->
           for id = 0 to (pages / 10) - 1 do
             ignore (Cache.insert sparse id page ~len:256)
           done;
           Cache.clear sparse));
    Test.make ~name:"overlay/add-node"
      (Staged.stage (fun () ->
           incr k;
           Overlay.add ov ~addr:(!k land 1023 * node) ov_node));
    Test.make ~name:"overlay/read-node"
      (Staged.stage (fun () ->
           incr k;
           ignore (Overlay.try_read ov ~addr:(!k land 1023 * node) ~len:node)));
    (* Every back-end and NIC booking. *)
    Test.make ~name:"timeline/append"
      (Staged.stage (fun () ->
           at := !at + 100;
           ignore (Asym_sim.Timeline.acquire tl ~at:!at ~dur:50)));
  ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf
    "@.== Bechamel micro-benchmarks (wall-clock ns/op, dune profile %s, crc32 kernel %s) ==@."
    Build_profile.name Asym_util.Crc32.kernel;
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Format.printf "%-28s %10.1f ns@." name est
      | _ -> Format.printf "%-28s (no estimate)@." name)
    results
