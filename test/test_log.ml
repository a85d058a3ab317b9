open Asym_core

let check = Alcotest.check

let entry ?from_op addr s = Log.Mem_entry.make ?from_op ~addr (Bytes.of_string s)

let tx ?(ds = 3) ?(op_hi = 9L) entries = { Log.Tx.ds; op_hi; entries }

(* The entries of a scanned frame, read through the iterator. *)
let entries_of buf v =
  let acc = ref [] in
  Log.Tx.iter_entries buf v (fun ~addr ~pos ~len -> acc := (addr, Bytes.sub_string buf pos len) :: !acc);
  List.rev !acc

let as_pairs entries =
  List.map (fun { Log.Mem_entry.addr; value; _ } -> (addr, Bytes.to_string value)) entries

let entry_list = Alcotest.(list (pair int string))
let fail fmt = QCheck.Test.fail_reportf fmt

let test_tx_roundtrip () =
  let t = tx [ entry 100 "abc"; entry 200 "defghij"; entry 64 "" ] in
  let b = Log.Tx.encode t in
  match Log.Tx.scan b ~pos:0 with
  | Log.Record (v, consumed) ->
      check Alcotest.int "consumed all" (Bytes.length b) consumed;
      check Alcotest.int "ds" 3 v.Log.Tx.ds;
      check Alcotest.int64 "op_hi" 9L v.Log.Tx.op_hi;
      check Alcotest.int "entries" 3 v.Log.Tx.count;
      check entry_list "addresses and values" (as_pairs t.Log.Tx.entries) (entries_of b v)
  | _ -> Alcotest.fail "expected record"

let test_tx_empty_at_zero_byte () =
  let b = Bytes.make 64 '\000' in
  check Alcotest.bool "empty" true (Log.Tx.scan b ~pos:0 = Log.Empty)

let test_tx_wrap_marker () =
  let b = Bytes.make 8 '\000' in
  Bytes.blit Log.wrap_marker 0 b 0 1;
  check Alcotest.bool "wrap" true (Log.Tx.scan b ~pos:0 = Log.Wrap)

let test_tx_torn_detected () =
  let t = tx [ entry 100 "some value here" ] in
  let b = Log.Tx.encode t in
  (* Corrupt one payload byte: the CRC must catch it. *)
  Bytes.set b (Bytes.length b - 6) 'X';
  check Alcotest.bool "torn" true (Log.Tx.scan b ~pos:0 = Log.Torn)

let test_tx_truncated_is_torn () =
  let t = tx [ entry 100 "0123456789abcdef" ] in
  let b = Log.Tx.encode t in
  let cut = Bytes.sub b 0 (Bytes.length b - 5) in
  check Alcotest.bool "truncated torn" true (Log.Tx.scan cut ~pos:0 = Log.Torn)

(* Replay reuses one buffer, so bytes past the window it just read are
   left over from earlier reads. A frame that runs past [lim] must be torn
   even when those stale bytes happen to complete it. *)
let test_tx_scan_stops_at_lim () =
  let b = Log.Tx.encode (tx [ entry 100 "a value that runs past the window" ]) in
  let n = Bytes.length b in
  (match Log.Tx.scan b ~pos:0 ~lim:n with
  | Log.Record (_, consumed) -> check Alcotest.int "whole frame inside lim" n consumed
  | _ -> Alcotest.fail "expected record");
  List.iter
    (fun lim ->
      check Alcotest.bool
        (Printf.sprintf "cut at %d of %d is torn" lim n)
        true
        (Log.Tx.scan b ~pos:0 ~lim = Log.Torn))
    [ n - 1; n - 4; n - 5; 20; 1 ];
  check Alcotest.bool "nothing before lim is empty" true
    (Log.Tx.scan b ~pos:0 ~lim:0 = Log.Empty)

let test_tx_sequence_scan () =
  let t1 = tx ~op_hi:1L [ entry 0 "one" ] in
  let t2 = tx ~op_hi:2L [ entry 8 "two" ] in
  let b1 = Log.Tx.encode t1 and b2 = Log.Tx.encode t2 in
  let buf = Bytes.make (Bytes.length b1 + Bytes.length b2 + 32) '\000' in
  Bytes.blit b1 0 buf 0 (Bytes.length b1);
  Bytes.blit b2 0 buf (Bytes.length b1) (Bytes.length b2);
  match Log.Tx.scan buf ~pos:0 with
  | Log.Record (r1, c1) -> (
      check Alcotest.int64 "first" 1L r1.Log.Tx.op_hi;
      match Log.Tx.scan buf ~pos:c1 with
      | Log.Record (r2, c2) ->
          check Alcotest.int64 "second" 2L r2.Log.Tx.op_hi;
          check Alcotest.bool "then empty" true (Log.Tx.scan buf ~pos:(c1 + c2) = Log.Empty)
      | _ -> Alcotest.fail "expected second record")
  | _ -> Alcotest.fail "expected first record"

let test_tx_wire_size_pointer_optimization () =
  let plain = tx [ entry 0 (String.make 64 'v') ] in
  let pointed = tx [ entry ~from_op:5L 0 (String.make 64 'v') ] in
  check Alcotest.bool "pointer form smaller on the wire" true
    (Log.Tx.wire_size pointed < Log.Tx.wire_size plain);
  (* Both encode the value inline for integrity; the pointer frame
     additionally stores the 8-byte op number it points at. *)
  check Alcotest.int "stored frame carries the op number"
    (Bytes.length (Log.Tx.encode plain) + 8)
    (Bytes.length (Log.Tx.encode pointed));
  (* The value sits past the 8-byte op number, which is stored right
     before the entry's address. *)
  let b = Log.Tx.encode pointed in
  match Log.Tx.scan b ~pos:0 with
  | Log.Record (v, _) ->
      check entry_list "value inline" [ (0, String.make 64 'v') ] (entries_of b v);
      Log.Tx.iter_entries b v (fun ~addr:_ ~pos ~len:_ ->
          check Alcotest.int64 "op number stored" 5L (Bytes.get_int64_le b (pos - 20)))
  | _ -> Alcotest.fail "expected record"

let test_op_roundtrip () =
  let op = { Log.Op_entry.ds = 7; opnum = 42L; optype = 3; params = Bytes.of_string "kv" } in
  let b = Log.Op_entry.encode op in
  match Log.Op_entry.scan b ~pos:0 with
  | Log.Record (op', consumed) ->
      check Alcotest.int "consumed" (Bytes.length b) consumed;
      check Alcotest.int "ds" 7 op'.Log.Op_entry.ds;
      check Alcotest.int64 "opnum" 42L op'.Log.Op_entry.opnum;
      check Alcotest.int "optype" 3 op'.Log.Op_entry.optype;
      check Alcotest.string "params" "kv" (Bytes.to_string op'.Log.Op_entry.params)
  | _ -> Alcotest.fail "expected record"

(* The op-log walk reads through the same reused window as replay. *)
let test_op_scan_stops_at_lim () =
  let op = { Log.Op_entry.ds = 1; opnum = 3L; optype = 1; params = Bytes.of_string "params" } in
  let b = Log.Op_entry.encode op in
  let n = Bytes.length b in
  (match Log.Op_entry.scan b ~pos:0 ~lim:n with
  | Log.Record (_, consumed) -> check Alcotest.int "whole record inside lim" n consumed
  | _ -> Alcotest.fail "expected record");
  List.iter
    (fun lim ->
      check Alcotest.bool
        (Printf.sprintf "cut at %d of %d is torn" lim n)
        true
        (Log.Op_entry.scan b ~pos:0 ~lim = Log.Torn))
    [ n - 1; n - 4; 18; 1 ];
  check Alcotest.bool "nothing before lim is empty" true
    (Log.Op_entry.scan b ~pos:0 ~lim:0 = Log.Empty)

let test_op_torn () =
  let op = { Log.Op_entry.ds = 1; opnum = 1L; optype = 1; params = Bytes.of_string "payload" } in
  let b = Log.Op_entry.encode op in
  Bytes.set b 14 '\255';
  check Alcotest.bool "torn" true (Log.Op_entry.scan b ~pos:0 = Log.Torn)

(* A 1-byte payload is the hardest torn-write case: the tear clips almost
   nothing, so only the checksum can tell. Both log kinds must catch a
   single flipped or clipped byte. *)
let test_tx_one_byte_payload_torn () =
  let t = tx [ entry 100 "x" ] in
  let good = Log.Tx.encode t in
  (match Log.Tx.scan good ~pos:0 with
  | Log.Record (v, _) ->
      check entry_list "sanity: 1-byte entry round-trips" [ (100, "x") ] (entries_of good v)
  | _ -> Alcotest.fail "expected record");
  let cut = Bytes.sub good 0 (Bytes.length good - 1) in
  check Alcotest.bool "clipping the last byte is torn" true
    (Log.Tx.scan cut ~pos:0 = Log.Torn);
  let flipped = Bytes.copy good in
  Bytes.set flipped (Bytes.length flipped - 1) '\255';
  check Alcotest.bool "flipping the last byte is torn" true
    (Log.Tx.scan flipped ~pos:0 = Log.Torn)

let test_op_one_byte_payload_torn () =
  let op = { Log.Op_entry.ds = 1; opnum = 1L; optype = 1; params = Bytes.of_string "p" } in
  let good = Log.Op_entry.encode op in
  (match Log.Op_entry.scan good ~pos:0 with
  | Log.Record (op', _) ->
      check Alcotest.string "sanity: 1-byte params round-trip" "p"
        (Bytes.to_string op'.Log.Op_entry.params)
  | _ -> Alcotest.fail "expected record");
  let cut = Bytes.sub good 0 (Bytes.length good - 1) in
  check Alcotest.bool "clipping the last byte is torn" true
    (Log.Op_entry.scan cut ~pos:0 = Log.Torn);
  let flipped = Bytes.copy good in
  Bytes.set flipped (Bytes.length flipped - 1) '\255';
  check Alcotest.bool "flipping the last byte is torn" true
    (Log.Op_entry.scan flipped ~pos:0 = Log.Torn)

let test_op_empty_and_wrap () =
  let b = Bytes.make 4 '\000' in
  check Alcotest.bool "empty" true (Log.Op_entry.scan b ~pos:0 = Log.Empty);
  Bytes.blit Log.wrap_marker 0 b 0 1;
  check Alcotest.bool "wrap" true (Log.Op_entry.scan b ~pos:0 = Log.Wrap)

let test_tx_empty_entries () =
  (* A header-only transaction (the §8.1 fully-annulled batch) still
     round-trips and advances op coverage. *)
  let t = tx ~op_hi:7L [] in
  let b = Log.Tx.encode t in
  match Log.Tx.scan b ~pos:0 with
  | Log.Record (v, _) ->
      check Alcotest.int64 "op_hi" 7L v.Log.Tx.op_hi;
      check Alcotest.int "no entries" 0 v.Log.Tx.count;
      check entry_list "iterates nothing" [] (entries_of b v)
  | _ -> Alcotest.fail "expected record"

let test_tx_scan_at_offset () =
  let b1 = Log.Tx.encode (tx ~op_hi:1L [ entry 0 "x" ]) in
  let buf = Bytes.make (Bytes.length b1 + 10) '\000' in
  Bytes.blit b1 0 buf 5 (Bytes.length b1);
  (* Scanning at the right offset parses; at offset 0 it reports Empty. *)
  check Alcotest.bool "offset 0 empty" true (Log.Tx.scan buf ~pos:0 = Log.Empty);
  (match Log.Tx.scan buf ~pos:5 with
  | Log.Record (r, _) -> check Alcotest.int64 "parsed at offset" 1L r.Log.Tx.op_hi
  | _ -> Alcotest.fail "expected record at offset 5");
  check Alcotest.bool "past end empty" true
    (Log.Tx.scan buf ~pos:(Bytes.length buf) = Log.Empty)

let test_wire_size_matches_encoded_without_pointers () =
  (* With no op-log pointers the wire size equals the encoded size. *)
  let t = tx [ entry 0 "0123456789"; entry 64 "" ] in
  check Alcotest.int "wire = encoded" (Bytes.length (Log.Tx.encode t)) (Log.Tx.wire_size t)

let gen_entry =
  QCheck.Gen.(
    map2
      (fun addr s -> Log.Mem_entry.make ~addr (Bytes.of_string s))
      (int_bound 100000) (string_size (0 -- 80)))

let prop_tx_roundtrip =
  QCheck.Test.make ~count:300 ~name:"tx encode/scan roundtrip"
    (QCheck.make QCheck.Gen.(pair (list_size (1 -- 10) gen_entry) (pair (int_bound 100) ui64)))
    (fun (entries, (ds, op_hi)) ->
      let t = { Log.Tx.ds; op_hi = Int64.logand op_hi Int64.max_int; entries } in
      let b = Log.Tx.encode t in
      match Log.Tx.scan b ~pos:0 with
      | Log.Record (v, n) ->
          n = Bytes.length b
          && v.Log.Tx.ds = t.Log.Tx.ds
          && v.Log.Tx.op_hi = t.Log.Tx.op_hi
          && v.Log.Tx.count = List.length entries
          && entries_of b v = as_pairs entries
      | _ -> false)

let prop_tx_bitflip_never_parses_wrong =
  QCheck.Test.make ~count:300 ~name:"single bit flip -> torn or identical"
    (QCheck.make QCheck.Gen.(triple (list_size (1 -- 4) gen_entry) (int_bound 10000) small_nat))
    (fun (entries, seed, flip) ->
      let t = { Log.Tx.ds = seed mod 7; op_hi = Int64.of_int seed; entries } in
      let b = Log.Tx.encode t in
      let i = flip mod (Bytes.length b * 8) in
      let byte = i / 8 and bit = i mod 8 in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl bit));
      match Log.Tx.scan b ~pos:0 with
      | Log.Record _ -> false (* CRC32 catches all single-bit flips *)
      | Log.Torn | Log.Empty | Log.Wrap -> true)

(* The on-media frames, pinned to bytes: any codec or checksum change that
   moves the stored format fails here, not after a crash. *)
let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let test_tx_golden_bytes () =
  let t = tx [ entry 0x1040 "inline!"; entry ~from_op:7L 0x2000 "pointer-entry-value" ] in
  check Alcotest.string "tx frame"
    ("b5030000000900000000000000020000000140100000000000000700000069"
   ^ "6e6c696e6521020700000000000000002000000000000013000000706f696e74"
   ^ "65722d656e7472792d76616c7565c37edb49a2")
    (hex (Log.Tx.encode t))

(* -- frames built at write time -------------------------------------------- *)

(* Batches of writes through a logged front-end: runs under three
   structures, values of 0-600 bytes written inside an operation (so
   those longer than 12 bytes become op-log pointer entries) or between
   operations (inline), and batches with operations but no write. Every
   batch before the last is flushed and replayed, and the data area must
   hold the writes in order; the back-end then crashes, so the last
   flush's frames stay in the memory-log ring. Scanned back, they hold
   exactly the writes of that batch, one frame per structure run (an
   empty frame for a batch without writes), each carrying the last op
   number, and every pointer entry names the operation that wrote it. *)
type write = { wds : int; waddr : int; wvalue : string; wop : int64 option }

let region_len = 8192

let gen_batch ~min_ops =
  QCheck.Gen.(
    list_size (min_ops -- 6)
      (pair (0 -- 2)
         (list_size (0 -- 5)
            (triple (0 -- 2) (frequency [ (3, 0 -- 12); (2, 13 -- 600) ]) (0 -- (region_len - 600))))))

let print_batch =
  QCheck.Print.(list (pair int (list (triple int int int))))

let prop_client_frames_scan_back =
  QCheck.Test.make ~count:100 ~name:"client batches scan back from the ring"
    (QCheck.make
       ~print:QCheck.Print.(pair (list print_batch) print_batch)
       QCheck.Gen.(pair (list_size (0 -- 3) (gen_batch ~min_ops:0)) (gen_batch ~min_ops:1)))
    (fun (batches, last) ->
      let bk =
        Backend.create ~name:"bk" ~max_sessions:2 ~memlog_cap:(1024 * 1024)
          ~oplog_cap:(256 * 1024) ~slab_size:4096 ~capacity:(16 * 1024 * 1024)
          Asym_sim.Latency.default
      in
      let fe =
        Client.connect ~name:"fe" (Client.rcb ~batch_size:100_000 ()) bk
          ~clock:(Asym_sim.Clock.create ~name:"fe" ())
      in
      let ds = Array.map (fun n -> (Client.register_ds fe n).Types.id) [| "a"; "b"; "c" |] in
      let region = Client.malloc fe region_len in
      let dev = Backend.device bk in
      let image = Asym_nvm.Device.read dev ~addr:region ~len:region_len in
      let stamp = ref 0 and last_op = ref 0L in
      (* One batch: each element is an operation (its structure and its
         writes); its writes at odd offsets land after it ends. *)
      let run_batch ops =
        List.concat_map
          (fun (op_ds, writes) ->
            let opnum = Client.op_begin fe ~ds:ds.(op_ds) ~optype:1 ~params:Bytes.empty in
            last_op := opnum;
            let inside, after = List.partition (fun (_, _, off) -> off land 1 = 0) writes in
            let emit ~in_op (w_ds, len, off) =
              incr stamp;
              let value = String.init len (fun i -> Char.chr ((!stamp + i) land 0xff)) in
              Client.write fe ~ds:ds.(w_ds) ~addr:(region + off) (Bytes.of_string value);
              Bytes.blit_string value 0 image off len;
              {
                wds = ds.(w_ds);
                waddr = region + off;
                wvalue = value;
                wop = (if in_op && len > 12 then Some opnum else None);
              }
            in
            let w1 = List.map (emit ~in_op:true) inside in
            Client.op_end fe ~ds:ds.(op_ds);
            w1 @ List.map (emit ~in_op:false) after)
          ops
      in
      List.iter
        (fun b ->
          ignore (run_batch b);
          Client.flush fe;
          if Asym_nvm.Device.read dev ~addr:region ~len:region_len <> image then
            fail "replayed data area differs")
        batches;
      let written = run_batch last in
      Backend.crash bk;
      (match Client.flush fe with
      | () -> fail "flush to a crashed back-end returned"
      | exception Asym_rdma.Verbs.Failure_detected _ -> ());
      let ring_base, cap = Backend.memlog_ring bk ~session:(Client.session fe) in
      let ring = Asym_nvm.Device.read dev ~addr:ring_base ~len:cap in
      (* Replay zeroed everything it consumed: the sealed batch is the only
         data left, after the wrap marker if it wrapped. *)
      let start =
        let rec first i = if Bytes.get_uint8 ring i <> 0 then i else first (i + 1) in
        let i = first 0 in
        if Bytes.get_uint8 ring i = 0xFF then first (i + 1) else i
      in
      let rec scan pos acc =
        match Log.Tx.scan ring ~pos with
        | Log.Record (v, n) ->
            if v.Log.Tx.op_hi <> !last_op then fail "op_hi %Ld, last op %Ld" v.Log.Tx.op_hi !last_op;
            let entries = ref [] in
            Log.Tx.iter_entries ring v (fun ~addr ~pos ~len ->
                let from_op =
                  if Bytes.get_uint8 ring (pos - 13) = 0x01 then None
                  else if Bytes.get_uint8 ring (pos - 21) = 0x02 then
                    Some (Bytes.get_int64_le ring (pos - 20))
                  else fail "entry at %d has no flag" pos
                in
                entries :=
                  { wds = v.Log.Tx.ds; waddr = addr; wvalue = Bytes.sub_string ring pos len; wop = from_op }
                  :: !entries);
            scan (pos + n) ((v.Log.Tx.ds, v.Log.Tx.count, List.rev !entries) :: acc)
        | Log.Empty -> List.rev acc
        | Log.Torn | Log.Wrap -> fail "torn frame at %d" pos
      in
      let frames = scan start [] in
      let runs =
        List.fold_left
          (fun acc w ->
            match acc with
            | (d, n) :: rest when d = w.wds -> (d, n + 1) :: rest
            | _ -> (w.wds, 1) :: acc)
          [] written
        |> List.rev
      in
      let runs = if runs = [] then [ (0, 0) ] else runs in
      List.map (fun (d, n, _) -> (d, n)) frames = runs
      && List.concat_map (fun (_, _, es) -> es) frames = written)

(* -- the ring walk ---------------------------------------------------------- *)

(* A ring written the way a front-end appends: frames of varying size
   from [tail] (the fifth bigger than a 4 KiB walk window, the others a
   few hundred bytes at most, so several share a window), a wrap marker
   where the next one no longer fits before the last byte, then on from
   the ring base. [frame i ~size] is the [i]-th frame, its payload [size]
   bytes long. *)
let lay_ring ~cap ~tail ~n frame =
  let ring = Bytes.make cap '\000' in
  let head = ref tail in
  for i = 1 to n do
    let raw = frame i ~size:(if i = 5 then 6000 else i * 97 mod 301) in
    if !head + Bytes.length raw + 1 > cap then begin
      Bytes.set_uint8 ring !head 0xFF;
      head := 0
    end;
    Bytes.blit raw 0 ring !head (Bytes.length raw);
    head := !head + Bytes.length raw
  done;
  (ring, !head)

let op_frame i ~size =
  Log.Op_entry.encode
    { Log.Op_entry.ds = 1; opnum = Int64.of_int i; optype = 1; params = Bytes.make size 'p' }

let tx_frame i ~size =
  Log.Tx.encode
    {
      Log.Tx.ds = 1;
      op_hi = Int64.of_int i;
      entries =
        [ Log.Mem_entry.make ~addr:(8 * i) (Bytes.make size 'v'); entry (4096 + i) "w" ];
    }

(* What the op and memory-log walks report of a frame: its op number. *)
let op_key (op : Log.Op_entry.t) = op.Log.Op_entry.opnum
let tx_key (v : Log.Tx.view) = v.Log.Tx.op_hi

let walk_with scan key ring ~tail =
  let read ~pos ~len = Bytes.sub ring pos len in
  let seen = ref [] in
  let { Log.head; torn; _ } =
    Log.walk ~scan ~read ~cap:(Bytes.length ring) ~from:tail (fun x ~pos ~len:_ ->
        seen := (key x, pos) :: !seen)
  in
  (List.rev !seen, head, torn)

let walk = walk_with Log.Op_entry.scan op_key

(* The reference walk: one scan per frame over the whole ring. *)
let walk_reference scan key ring ~tail =
  let cap = Bytes.length ring in
  let rec go pos walked acc =
    if walked >= cap then (List.rev acc, pos, false)
    else
      match scan ?lim:None ring ~pos with
      | Log.Record (x, n) -> go (pos + n) (walked + n) ((key x, pos) :: acc)
      | Log.Wrap -> go 0 (walked + cap - pos) acc
      | Log.Empty -> (List.rev acc, pos, false)
      | Log.Torn -> (List.rev acc, pos, true)
  in
  go tail 0 []

let op_reference = walk_reference Log.Op_entry.scan op_key
let walk_result = Alcotest.(triple (list (pair int64 int)) int bool)

let test_walk_windows () =
  (* Records cut by a window's end, one longer than a window and a wrap:
     the windowed walk sees what a scan per record sees. *)
  let ring, head = lay_ring ~cap:20_000 ~tail:12_000 ~n:60 op_frame in
  check Alcotest.bool "the records wrap" true (head < 12_000);
  let ((seen, head', _) as got) = walk ring ~tail:12_000 in
  check Alcotest.int "ends at the append head" head head';
  check Alcotest.(list int64) "every record, in order" (List.init 60 (fun i -> Int64.of_int (i + 1)))
    (List.map fst seen);
  check walk_result "as the reference walk" (op_reference ring ~tail:12_000) got

let test_walk_stops_at_torn_frame () =
  let ring, head = lay_ring ~cap:20_000 ~tail:0 ~n:40 op_frame in
  (* Tear the last record's CRC: the walk ends where that record starts. *)
  Bytes.set_uint8 ring (head - 1) (Bytes.get_uint8 ring (head - 1) lxor 0xFF);
  let ((seen, _, torn) as got) = walk ring ~tail:0 in
  check Alcotest.int "every whole record" 39 (List.length seen);
  check Alcotest.bool "reports the tear" true torn;
  check walk_result "as the reference walk" (op_reference ring ~tail:0) got

let test_walk_one_lap () =
  (* A ring with no zero byte anywhere, 400 records and the wrap marker
     after them: the walk gives up after a lap. The 32-byte records also
     end exactly where each 4 KiB window does. *)
  let ring = Bytes.make ((32 * 400) + 1) '\xff' in
  for i = 0 to 399 do
    let raw =
      Log.Op_entry.encode
        { Log.Op_entry.ds = 1; opnum = Int64.of_int i; optype = 1; params = Bytes.make 10 'q' }
    in
    Bytes.blit raw 0 ring (i * 32) 32
  done;
  let ((seen, head, _) as got) = walk ring ~tail:32 in
  check Alcotest.int "one lap of records" 400 (List.length seen);
  check Alcotest.int "stops where it began" 32 head;
  check walk_result "as the reference walk" (op_reference ring ~tail:32) got

(* Memory-log frames through the same walk: several in one window, one
   longer than a window, a wrap, and a torn last frame. *)
let test_walk_memlog_frames () =
  let walk_tx = walk_with Log.Tx.scan tx_key in
  let tx_reference = walk_reference Log.Tx.scan tx_key in
  let ring, head = lay_ring ~cap:20_000 ~tail:12_000 ~n:60 tx_frame in
  check Alcotest.bool "the frames wrap" true (head < 12_000);
  check Alcotest.bool "the fifth frame outgrows a window" true
    (Bytes.length (tx_frame 5 ~size:6000) > 4096);
  let ((seen, head', torn) as got) = walk_tx ring ~tail:12_000 in
  check Alcotest.int "ends at the append head" head head';
  check Alcotest.bool "at a zero byte" false torn;
  check Alcotest.(list int64) "every frame, in order"
    (List.init 60 (fun i -> Int64.of_int (i + 1)))
    (List.map fst seen);
  let first_window = List.filter (fun (_, pos) -> pos >= 12_000 && pos < 12_000 + 4096) seen in
  check Alcotest.bool "several frames in the first window" true (List.length first_window > 2);
  check walk_result "as the reference walk" (tx_reference ring ~tail:12_000) got;
  (* Tear the last frame's CRC: the walk stops at its start, torn. *)
  let last = snd (List.nth seen 59) in
  Bytes.set_uint8 ring (head - 1) (Bytes.get_uint8 ring (head - 1) lxor 0xFF);
  let ((seen, head', torn) as got) = walk_tx ring ~tail:12_000 in
  check Alcotest.int "every whole frame" 59 (List.length seen);
  check Alcotest.int "stops at the torn frame" last head';
  check Alcotest.bool "reports the tear" true torn;
  check walk_result "as the reference walk, torn" (tx_reference ring ~tail:12_000) got

let test_track_lock () =
  let record ~acquire ~opnum addr = Log.lock_record ~acquire ~opnum addr in
  let held =
    List.fold_left Log.track_lock []
      [
        record ~acquire:true ~opnum:1L 64;
        record ~acquire:true ~opnum:2L 128;
        { Log.Op_entry.ds = 1; opnum = 3L; optype = 1; params = Bytes.make 8 '\000' };
        record ~acquire:false ~opnum:4L 64;
      ]
  in
  check Alcotest.(list int) "only the unreleased lock" [ 128 ] held;
  check Alcotest.bool "lock records are internal" true
    (Log.internal_optype (record ~acquire:true ~opnum:1L 0).Log.Op_entry.optype)

let test_op_golden_bytes () =
  let op =
    { Log.Op_entry.ds = 5; opnum = 42L; optype = 1; params = Bytes.of_string "key=17,val=99" }
  in
  check Alcotest.string "op frame"
    "a7050000002a00000000000000010d0000006b65793d31372c76616c3d393936baa62d"
    (hex (Log.Op_entry.encode op))

let () =
  Alcotest.run "log"
    [
      ( "tx",
        [
          Alcotest.test_case "roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "empty" `Quick test_tx_empty_at_zero_byte;
          Alcotest.test_case "wrap marker" `Quick test_tx_wrap_marker;
          Alcotest.test_case "torn detected" `Quick test_tx_torn_detected;
          Alcotest.test_case "truncated torn" `Quick test_tx_truncated_is_torn;
          Alcotest.test_case "1-byte payload torn" `Quick test_tx_one_byte_payload_torn;
          Alcotest.test_case "sequence scan" `Quick test_tx_sequence_scan;
          Alcotest.test_case "scan stops at lim" `Quick test_tx_scan_stops_at_lim;
          Alcotest.test_case "pointer wire optimization" `Quick
            test_tx_wire_size_pointer_optimization;
          Alcotest.test_case "empty (annulled) tx" `Quick test_tx_empty_entries;
          Alcotest.test_case "scan at offset" `Quick test_tx_scan_at_offset;
          Alcotest.test_case "wire size without pointers" `Quick
            test_wire_size_matches_encoded_without_pointers;
          Alcotest.test_case "golden bytes" `Quick test_tx_golden_bytes;
          QCheck_alcotest.to_alcotest prop_tx_roundtrip;
          QCheck_alcotest.to_alcotest prop_tx_bitflip_never_parses_wrong;
          QCheck_alcotest.to_alcotest prop_client_frames_scan_back;
        ] );
      ( "op",
        [
          Alcotest.test_case "roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "torn" `Quick test_op_torn;
          Alcotest.test_case "scan stops at lim" `Quick test_op_scan_stops_at_lim;
          Alcotest.test_case "1-byte payload torn" `Quick test_op_one_byte_payload_torn;
          Alcotest.test_case "empty/wrap" `Quick test_op_empty_and_wrap;
          Alcotest.test_case "golden bytes" `Quick test_op_golden_bytes;
        ] );
      ( "walk",
        [
          Alcotest.test_case "windows match a per-record scan" `Quick test_walk_windows;
          Alcotest.test_case "stops at a torn frame" `Quick test_walk_stops_at_torn_frame;
          Alcotest.test_case "at most one lap" `Quick test_walk_one_lap;
          Alcotest.test_case "memory-log frames" `Quick test_walk_memlog_frames;
          Alcotest.test_case "held-lock tracking" `Quick test_track_lock;
        ] );
    ]
