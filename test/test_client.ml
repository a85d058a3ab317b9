open Asym_sim
open Asym_core

let check = Alcotest.check
let lat = Latency.default

let mk_backend () =
  Backend.create ~name:"bk" ~max_sessions:6 ~memlog_cap:(256 * 1024) ~oplog_cap:(128 * 1024)
    ~slab_size:1024 ~capacity:(8 * 1024 * 1024) lat

let mk_client ?(cfg = Client.r ()) ?(name = "fe") bk =
  let clk = Clock.create ~name () in
  (Client.connect ~name cfg bk ~clock:clk, clk)

(* -- overlay ---------------------------------------------------------------- *)

let test_overlay_patch () =
  let o = Overlay.create () in
  Overlay.add o ~addr:100 (Bytes.of_string "XY");
  let buf = Bytes.of_string "abcdef" in
  Overlay.patch o ~addr:98 buf;
  check Alcotest.string "patched middle" "abXYef" (Bytes.to_string buf)

let test_overlay_try_read () =
  let o = Overlay.create () in
  check Alcotest.bool "empty" true (Overlay.try_read o ~addr:0 ~len:4 = None);
  Overlay.add o ~addr:10 (Bytes.of_string "abcd");
  check Alcotest.bool "full cover" true
    (Overlay.try_read o ~addr:10 ~len:4 = Some (Bytes.of_string "abcd"));
  check Alcotest.bool "partial cover fails" true (Overlay.try_read o ~addr:9 ~len:4 = None);
  check Alcotest.bool "sub-range ok" true
    (Overlay.try_read o ~addr:11 ~len:2 = Some (Bytes.of_string "bc"))

let test_overlay_spans_blocks () =
  let o = Overlay.create () in
  let v = Bytes.init 200 (fun i -> Char.chr (i mod 256)) in
  Overlay.add o ~addr:60 v;
  (* 60..260 spans four 64-byte blocks. *)
  check Alcotest.bool "spanning read" true (Overlay.try_read o ~addr:60 ~len:200 = Some v);
  Overlay.clear o;
  check Alcotest.bool "cleared" true (Overlay.try_read o ~addr:60 ~len:1 = None)

let test_overlay_last_write_wins () =
  let o = Overlay.create () in
  Overlay.add o ~addr:0 (Bytes.of_string "aaaa");
  Overlay.add o ~addr:2 (Bytes.of_string "BB");
  check Alcotest.bool "overwrite" true (Overlay.try_read o ~addr:0 ~len:4 = Some (Bytes.of_string "aaBB"))

(* -- cache ------------------------------------------------------------------- *)

(* [Cache.find] as an option of a copy of the page, for assertions. *)
let cached c id =
  let s = Cache.find c id in
  if s < 0 then None
  else Some (Bytes.sub (Cache.arena c) (s * Cache.page_size c) (Cache.page_length c s))

let insert c id page = ignore (Cache.insert c id page ~len:(Bytes.length page))

let mk_cache ?(policy = Cache.Hybrid) ?(pages = 8) () =
  Cache.create ~policy ~page_size:64 ~capacity_bytes:(pages * 64)
    (Asym_util.Rng.create ~seed:1L)

let test_cache_hit_miss () =
  let c = mk_cache () in
  check Alcotest.bool "miss" true (cached c 5 = None);
  insert c 5 (Bytes.make 64 'x');
  check Alcotest.bool "hit" true (cached c 5 <> None);
  check Alcotest.int "hits" 1 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c)

let test_cache_capacity_bounded () =
  let c = mk_cache ~pages:4 () in
  for i = 0 to 99 do
    insert c i (Bytes.make 64 'x')
  done;
  check Alcotest.int "bounded" 4 (Cache.length c)

let test_cache_lru_evicts_oldest () =
  let c = mk_cache ~policy:Cache.Lru ~pages:3 () in
  insert c 1 (Bytes.create 64);
  insert c 2 (Bytes.create 64);
  insert c 3 (Bytes.create 64);
  ignore (cached c 1);
  (* 2 is now LRU *)
  insert c 4 (Bytes.create 64);
  check Alcotest.bool "1 kept" true (cached c 1 <> None);
  check Alcotest.bool "2 evicted" true (cached c 2 = None)

let test_cache_patch () =
  let c = mk_cache () in
  insert c 1 (Bytes.make 64 'a');
  (* page 1 covers addresses 64..127 *)
  Cache.patch c ~addr:70 (Bytes.of_string "ZZZ");
  match cached c 1 with
  | Some b -> check Alcotest.string "patched" "aZZZa" (Bytes.sub_string b 5 5)
  | None -> Alcotest.fail "page lost"

let miss_ratio policy =
  (* Zipfian accesses over 512 pages with a 64-page cache. *)
  let rng = Asym_util.Rng.create ~seed:9L in
  let c = Cache.create ~policy ~page_size:64 ~capacity_bytes:(64 * 64) rng in
  let z = Asym_util.Zipf.create ~theta:0.9 ~n:512 (Asym_util.Rng.create ~seed:5L) in
  for _ = 1 to 30_000 do
    let p = Asym_util.Zipf.next z in
    match cached c p with None -> insert c p (Bytes.create 64) | Some _ -> ()
  done;
  float_of_int (Cache.misses c) /. float_of_int (Cache.hits c + Cache.misses c)

let test_cache_hybrid_beats_rr () =
  let rr = miss_ratio Cache.Rr in
  let hybrid = miss_ratio Cache.Hybrid in
  let lru = miss_ratio Cache.Lru in
  check Alcotest.bool "hybrid < rr" true (hybrid < rr);
  check Alcotest.bool "hybrid close to lru" true (hybrid < lru +. 0.05)

(* -- two-tier allocator --------------------------------------------------------- *)

let test_front_alloc_local_fast_path () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let a = Client.allocator fe in
  let addrs = List.init 20 (fun _ -> Client.malloc fe 64) in
  check Alcotest.int "20 allocations" 20 (Front_alloc.allocations a);
  (* 1024-byte slabs hold 16 64-byte blocks and slabs are prefetched 8 at
     a time: 20 allocations need a single back-end RPC. *)
  check Alcotest.int "one slab rpc" 1 (Front_alloc.slab_rpcs a);
  let distinct = List.sort_uniq compare addrs in
  check Alcotest.int "all distinct" 20 (List.length distinct)

let test_front_alloc_free_reuse () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let x = Client.malloc fe 100 in
  Client.free fe x ~len:100;
  let y = Client.malloc fe 100 in
  check Alcotest.int "block reused" x y

let test_front_alloc_large_goes_remote () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let a = Client.allocator fe in
  let before = Front_alloc.slab_rpcs a in
  let big = Client.malloc fe 10_000 in
  check Alcotest.int "one rpc" (before + 1) (Front_alloc.slab_rpcs a);
  Client.free fe big ~len:10_000;
  let l = Backend.layout bk in
  check Alcotest.int "slab aligned" 0 ((big - l.Layout.data_base) mod l.Layout.slab_size)

let test_front_alloc_rpc_symmetry () =
  (* Every large alloc is one slab RPC and its free is another: the pair
     must move the counter by exactly two (the free path used to issue
     the free_slabs RPC without counting it). *)
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let a = Client.allocator fe in
  let before = Front_alloc.slab_rpcs a in
  let big = Client.malloc fe 10_000 in
  check Alcotest.int "alloc counted" (before + 1) (Front_alloc.slab_rpcs a);
  Client.free fe big ~len:10_000;
  check Alcotest.int "free counted" (before + 2) (Front_alloc.slab_rpcs a)

let test_front_alloc_misaligned_free_rejected () =
  let bk = mk_backend () in
  let fe, _ = mk_client bk in
  let x = Client.malloc fe 64 in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Front_alloc.free: misaligned block") (fun () ->
      Client.free fe (x + 3) ~len:64)

(* -- read path ------------------------------------------------------------------- *)

let test_cached_read_cheaper_second_time () =
  let bk = mk_backend () in
  let fe, clk = mk_client ~cfg:(Client.rc ()) bk in
  let h = Client.register_ds fe "kv" in
  ignore h;
  let addr = Client.malloc fe 64 in
  ignore (Client.read fe ~addr ~len:64);
  let t1 = Clock.now clk in
  ignore (Client.read fe ~addr ~len:64);
  let dt = Clock.now clk - t1 in
  check Alcotest.bool "cache hit is sub-rtt" true (dt < lat.Latency.rdma_rtt_ns / 2)

let test_uncached_read_costs_rtt_every_time () =
  let bk = mk_backend () in
  let fe, clk = mk_client ~cfg:(Client.r ()) bk in
  let addr = Client.malloc fe 64 in
  let t0 = Clock.now clk in
  ignore (Client.read fe ~addr ~len:64);
  ignore (Client.read fe ~addr ~len:64);
  check Alcotest.bool "2 rtts" true (Clock.now clk - t0 >= 2 * lat.Latency.rdma_rtt_ns)

let test_cold_hint_bypasses_cache () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.rc ()) bk in
  let addr = Client.malloc fe 64 in
  ignore (Client.read ~hint:`Cold fe ~addr ~len:64);
  let hits, misses = Client.cache_stats fe in
  check Alcotest.int "no cache traffic" 0 (hits + misses)

let test_read_own_write_before_flush () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.rcb ~batch_size:100 ()) bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr (Bytes.of_string "pending!");
  check Alcotest.string "overlay serves it" "pending!"
    (Bytes.to_string (Client.read fe ~addr ~len:8));
  Client.op_end fe ~ds:h.Types.id;
  (* Not yet flushed (batch 100): remote data area must NOT have it. *)
  check Alcotest.bool "not yet durable" true
    (Bytes.to_string (Asym_nvm.Device.read (Backend.device bk) ~addr ~len:8) <> "pending!");
  Client.flush fe;
  check Alcotest.string "durable after flush" "pending!"
    (Bytes.to_string (Asym_nvm.Device.read (Backend.device bk) ~addr ~len:8))

(* A read's result is the caller's: the cache copies the page out of its
   arena, so editing the buffer (as structures edit node images) changes
   no later read, hit or miss, one page or two. *)
let test_read_result_is_not_the_cache () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.rc ()) bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 512 in
  let image = Bytes.init 512 (fun i -> Char.chr (i land 0xff)) in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr image;
  Client.op_end fe ~ds:h.Types.id;
  Client.invalidate_cache fe;
  List.iter
    (fun (off, len) ->
      let first = Client.read fe ~addr:(addr + off) ~len in
      Bytes.fill first 0 len '!';
      let again = Client.read fe ~addr:(addr + off) ~len in
      check Alcotest.string
        (Printf.sprintf "read %d+%d unchanged" off len)
        (Bytes.sub_string image off len) (Bytes.to_string again))
    [ (0, 64); (200, 100); (0, 512) ];
  let hits, _ = Client.cache_stats fe in
  check Alcotest.bool "later reads hit the cache" true (hits > 0)

(* A miss whose read is lost for good (every verb dropped, the retry and
   reconnect budget spent) changes nothing in the cache: no slot holds a
   half-read page, so once the fabric recovers the page is read again and
   the page cached before is still there. *)
let test_failed_miss_leaves_cache () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.rc ~cache_bytes:512 ()) bk in
  let dev = Backend.device bk in
  let kept = 4096 and lost = 8192 in
  Asym_nvm.Device.write dev ~addr:kept (Bytes.of_string "kept");
  Asym_nvm.Device.write dev ~addr:lost (Bytes.of_string "lost");
  ignore (Client.read fe ~addr:kept ~len:4);
  let conn = Client.connection fe in
  Asym_rdma.Verbs.set_fault conn (Some (Asym_rdma.Verbs.Fault.make ~drop_p:1.0 ~seed:4L ()));
  (match Client.read fe ~addr:lost ~len:4 with
  | _ -> Alcotest.fail "a read with every verb dropped returned"
  | exception Asym_rdma.Verbs.Verb_timeout _ -> ());
  Asym_rdma.Verbs.set_fault conn None;
  check Alcotest.string "lost page read again" "lost"
    (Bytes.to_string (Client.read fe ~addr:lost ~len:4));
  check Alcotest.string "kept page" "kept" (Bytes.to_string (Client.read fe ~addr:kept ~len:4));
  check Alcotest.(pair int int) "one hit, three misses" (1, 3) (Client.cache_stats fe)

(* The device's last page is shorter than a cache page: it is read and
   cached at its length. *)
let test_short_last_page_cached () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:{ (Client.rc ()) with Client.page_size = 3000 } bk in
  let dev = Backend.device bk in
  let cap = Asym_nvm.Device.capacity dev in
  check Alcotest.bool "last page is short" true (cap mod 3000 <> 0);
  Asym_nvm.Device.write dev ~addr:(cap - 16) (Bytes.of_string "the device's end");
  let read () = Bytes.to_string (Client.read fe ~addr:(cap - 16) ~len:16) in
  check Alcotest.string "miss" "the device's end" (read ());
  check Alcotest.string "hit" "the device's end" (read ());
  check Alcotest.(pair int int) "one miss, then a hit" (1, 1) (Client.cache_stats fe)

(* -- naive (direct) mode ------------------------------------------------------------ *)

let test_direct_mode_writes_in_place () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.naive ()) bk in
  let h = Client.register_ds fe "kv" in
  let addr = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write fe ~ds:h.Types.id ~addr (Bytes.of_string "immediate");
  (* Durable before op_end: direct RDMA write. *)
  check Alcotest.string "in place" "immediate"
    (Bytes.to_string (Asym_nvm.Device.read (Backend.device bk) ~addr ~len:9));
  Client.op_end fe ~ds:h.Types.id;
  check Alcotest.int "no tx replay in naive mode" 0 (Backend.replayed_txs bk)

let test_naive_slower_than_logged () =
  let run cfg =
    let bk = mk_backend () in
    let fe, clk = mk_client ~cfg bk in
    let h = Client.register_ds fe "kv" in
    let addr = Client.malloc fe 256 in
    let t0 = Clock.now clk in
    for i = 0 to 99 do
      ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
      (* Four small field writes per operation, as a tree insert would do. *)
      for f = 0 to 3 do
        Client.write_u64 fe ~ds:h.Types.id (addr + (8 * f)) (Int64.of_int (i + f))
      done;
      Client.op_end fe ~ds:h.Types.id
    done;
    Clock.now clk - t0
  in
  let naive = run (Client.naive ()) in
  let logged = run (Client.r ()) in
  let batched = run (Client.rcb ~batch_size:64 ()) in
  check Alcotest.bool "R faster than naive" true (logged < naive);
  check Alcotest.bool "RCB faster than R" true (batched < logged)

(* -- op log / pending ops --------------------------------------------------------- *)

let test_pending_ops_visible_until_flush () =
  let bk = mk_backend () in
  let fe, _ = mk_client ~cfg:(Client.rcb ~batch_size:10 ()) bk in
  let h = Client.register_ds fe "stack" in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:7 ~params:(Bytes.of_string "a"));
  Client.op_end fe ~ds:h.Types.id;
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:8 ~params:(Bytes.of_string "b"));
  Client.op_end fe ~ds:h.Types.id;
  let ops = Client.pending_ops fe ~ds:h.Types.id in
  check Alcotest.int "two pending" 2 (List.length ops);
  check (Alcotest.list Alcotest.int) "order and types" [ 7; 8 ]
    (List.map (fun (_, ty, _) -> ty) ops);
  Client.flush fe;
  check Alcotest.int "cleared by flush" 0 (List.length (Client.pending_ops fe ~ds:h.Types.id))

(* -- property tests --------------------------------------------------------- *)

let prop_allocations_never_overlap =
  QCheck.Test.make ~count:50 ~name:"live allocations never overlap"
    QCheck.(small_list (pair (int_range 1 600) bool))
    (fun reqs ->
      let bk = mk_backend () in
      let fe, _ = mk_client bk in
      let live = Hashtbl.create 16 in
      List.iteri
        (fun i (size, free_one) ->
          if free_one && Hashtbl.length live > 0 then begin
            let addr, len = Hashtbl.fold (fun a l _ -> (a, l)) live (0, 0) in
            Hashtbl.remove live addr;
            Client.free fe addr ~len
          end
          else begin
            let addr = Client.malloc fe size in
            Hashtbl.replace live addr size;
            ignore i
          end)
        reqs;
      (* No two live allocations may intersect. *)
      let spans = Hashtbl.fold (fun a l acc -> (a, a + l) :: acc) live [] in
      let sorted = List.sort compare spans in
      let rec disjoint = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
        | _ -> true
      in
      disjoint sorted)

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~count:100 ~name:"cache stays within capacity for any policy"
    QCheck.(pair (int_range 1 16) (small_list (int_bound 200)))
    (fun (pages, accesses) ->
      List.for_all
        (fun policy ->
          let c =
            Cache.create ~policy ~page_size:64 ~capacity_bytes:(pages * 64)
              (Asym_util.Rng.create ~seed:3L)
          in
          List.iter
            (fun id ->
              match cached c id with
              | Some _ -> ()
              | None -> insert c id (Bytes.create 64))
            accesses;
          Cache.length c <= pages)
        [ Cache.Lru; Cache.Rr; Cache.Hybrid ])

let prop_overlay_matches_byte_model =
  QCheck.Test.make ~count:150 ~name:"overlay patch/try_read vs flat byte model"
    QCheck.(small_list (pair (int_bound 200) (string_of_size Gen.(1 -- 24))))
    (fun writes ->
      let o = Overlay.create () in
      let model = Bytes.make 256 '\000' in
      let written = Array.make 256 false in
      List.iter
        (fun (addr, s) ->
          let s = if addr + String.length s > 256 then String.sub s 0 (256 - addr) else s in
          if String.length s > 0 then begin
            Overlay.add o ~addr (Bytes.of_string s);
            Bytes.blit_string s 0 model addr (String.length s);
            for i = addr to addr + String.length s - 1 do
              written.(i) <- true
            done
          end)
        writes;
      (* patch must overlay exactly the written bytes... *)
      let base = Bytes.make 256 '\xff' in
      Overlay.patch o ~addr:0 base;
      let patch_ok = ref true in
      for i = 0 to 255 do
        let expect = if written.(i) then Bytes.get model i else '\xff' in
        if Bytes.get base i <> expect then patch_ok := false
      done;
      (* ...and try_read succeeds exactly on fully-written ranges. *)
      let try_ok = ref true in
      List.iter
        (fun (addr, s) ->
          let len = min (String.length s) (256 - addr) in
          if len > 0 then
            match Overlay.try_read o ~addr ~len with
            | Some b -> if not (Bytes.equal b (Bytes.sub model addr len)) then try_ok := false
            | None -> try_ok := false)
        writes;
      !patch_ok && !try_ok)

(* A reference for the overlay: a plain map from address to pending byte.
   Random add/try_read/patch/clear sequences over a few blocks exercise
   unaligned, block-straddling, partly covered and overlapping ranges. *)
type overlay_op =
  | Add of int * string
  | Try_read of int * int
  | Patch of int * int
  | Clear

let gen_overlay_op ~span ~max_len =
  QCheck.Gen.(
    let addr = int_bound span and len = 1 -- max_len in
    frequency
      [
        (5, map2 (fun a s -> Add (a, s)) addr (string_size ~gen:printable len));
        (3, map2 (fun a n -> Try_read (a, n)) addr len);
        (3, map2 (fun a n -> Patch (a, n)) addr len);
        (1, return Clear);
      ])

let print_overlay_op = function
  | Add (a, s) -> Printf.sprintf "add %d %S" a s
  | Try_read (a, n) -> Printf.sprintf "try_read %d %d" a n
  | Patch (a, n) -> Printf.sprintf "patch %d %d" a n
  | Clear -> "clear"

let overlay_matches_reference ops =
  let o = Overlay.create () in
  let model : (int, char) Hashtbl.t = Hashtbl.create 64 in
  List.for_all
    (function
      | Add (addr, s) ->
          Overlay.add o ~addr (Bytes.of_string s);
          String.iteri (fun i c -> Hashtbl.replace model (addr + i) c) s;
          true
      | Try_read (addr, len) ->
          let expect =
            if List.for_all (fun i -> Hashtbl.mem model (addr + i)) (List.init len Fun.id)
            then Some (Bytes.init len (fun i -> Hashtbl.find model (addr + i)))
            else None
          in
          Overlay.try_read o ~addr ~len = expect
      | Patch (addr, len) ->
          let buf = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
          Overlay.patch o ~addr buf;
          Bytes.equal buf
            (Bytes.init len (fun i ->
                 match Hashtbl.find_opt model (addr + i) with
                 | Some c -> c
                 | None -> Char.chr (i land 0xff)))
      | Clear ->
          Overlay.clear o;
          Hashtbl.reset model;
          true)
    ops

let prop_overlay_matches_reference =
  QCheck.Test.make ~count:300 ~name:"overlay add/try_read/patch/clear vs byte-map reference"
    (QCheck.make
       ~print:QCheck.Print.(list print_overlay_op)
       QCheck.Gen.(list_size (1 -- 40) (gen_overlay_op ~span:320 ~max_len:140)))
    overlay_matches_reference

(* The same over a few hundred blocks: the index grows several times, and
   a [clear] empties an index holding many blocks. *)
let prop_overlay_matches_reference_wide =
  QCheck.Test.make ~count:200 ~name:"overlay vs byte-map reference across many blocks"
    (QCheck.make
       ~print:QCheck.Print.(list print_overlay_op)
       QCheck.Gen.(list_size (1 -- 150) (gen_overlay_op ~span:40_000 ~max_len:700)))
    overlay_matches_reference

(* Once its arena has grown, the overlay adds, patches and clears without
   allocating, and [try_read] allocates only its result: the buffer and
   the [Some]. *)
let test_overlay_allocation () =
  let o = Overlay.create () in
  let node = Bytes.make 512 'n' and part = Bytes.make 100 'p' and buf = Bytes.create 512 in
  let batch () =
    for i = 0 to 1023 do
      Overlay.add o ~addr:(i * 4096) node
    done;
    Overlay.add o ~addr:3 part;
    Overlay.patch o ~addr:(7 * 4096) buf;
    Overlay.patch o ~addr:1 buf;
    Overlay.clear o
  in
  batch ();
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    batch ()
  done;
  let words = Gc.minor_words () -. before in
  if words > 64. then Alcotest.failf "add/patch/clear allocated %.0f words" words;
  for i = 0 to 1023 do
    Overlay.add o ~addr:(i * 4096) node
  done;
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    ignore (Overlay.try_read o ~addr:(i * 4096) ~len:512)
  done;
  let words = Gc.minor_words () -. before in
  (* 512 bytes, the padding word and a header, plus two words of [Some],
     per read *)
  let per_read = (512 / (Sys.word_size / 8)) + 2 + 2 in
  if words > float_of_int ((1000 * per_read) + 64) then
    Alcotest.failf "try_read allocated %.0f words for 1000 reads" words

let prop_cache_readback =
  QCheck.Test.make ~count:100 ~name:"cache returns the last inserted/patched bytes"
    QCheck.(small_list (pair (int_bound 7) (string_of_size Gen.(return 64))))
    (fun writes ->
      let c = mk_cache ~pages:8 () in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (id, s) ->
          insert c id (Bytes.of_string s);
          Hashtbl.replace model id s)
        writes;
      Hashtbl.fold
        (fun id s acc ->
          acc
          &&
          match cached c id with
          | Some b -> Bytes.to_string b = s
          | None -> true (* evicted is fine; wrong bytes are not *))
        model true)

let () =
  Alcotest.run "client"
    [
      ( "overlay",
        [
          Alcotest.test_case "patch" `Quick test_overlay_patch;
          Alcotest.test_case "try_read" `Quick test_overlay_try_read;
          Alcotest.test_case "spans blocks" `Quick test_overlay_spans_blocks;
          Alcotest.test_case "last write wins" `Quick test_overlay_last_write_wins;
          Alcotest.test_case "allocates only results" `Quick test_overlay_allocation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "capacity bounded" `Quick test_cache_capacity_bounded;
          Alcotest.test_case "lru evicts oldest" `Quick test_cache_lru_evicts_oldest;
          Alcotest.test_case "patch" `Quick test_cache_patch;
          Alcotest.test_case "hybrid between rr and lru" `Slow test_cache_hybrid_beats_rr;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "local fast path" `Quick test_front_alloc_local_fast_path;
          Alcotest.test_case "free/reuse" `Quick test_front_alloc_free_reuse;
          Alcotest.test_case "large goes remote" `Quick test_front_alloc_large_goes_remote;
          Alcotest.test_case "alloc/free rpc symmetry" `Quick test_front_alloc_rpc_symmetry;
          Alcotest.test_case "misaligned free rejected" `Quick
            test_front_alloc_misaligned_free_rejected;
        ] );
      ( "reads",
        [
          Alcotest.test_case "cached read cheaper" `Quick test_cached_read_cheaper_second_time;
          Alcotest.test_case "uncached pays rtt" `Quick test_uncached_read_costs_rtt_every_time;
          Alcotest.test_case "cold hint bypasses cache" `Quick test_cold_hint_bypasses_cache;
          Alcotest.test_case "read own write" `Quick test_read_own_write_before_flush;
          Alcotest.test_case "result is not the cache" `Quick test_read_result_is_not_the_cache;
          Alcotest.test_case "short last page" `Quick test_short_last_page_cached;
          Alcotest.test_case "failed miss leaves the cache" `Quick test_failed_miss_leaves_cache;
        ] );
      ( "modes",
        [
          Alcotest.test_case "direct writes in place" `Quick test_direct_mode_writes_in_place;
          Alcotest.test_case "naive < R < RCB" `Quick test_naive_slower_than_logged;
        ] );
      ( "oplog",
        [
          Alcotest.test_case "pending ops until flush" `Quick test_pending_ops_visible_until_flush;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_allocations_never_overlap;
          QCheck_alcotest.to_alcotest prop_cache_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_cache_readback;
          QCheck_alcotest.to_alcotest prop_overlay_matches_byte_model;
          QCheck_alcotest.to_alcotest prop_overlay_matches_reference;
          QCheck_alcotest.to_alcotest prop_overlay_matches_reference_wide;
        ] );
    ]
