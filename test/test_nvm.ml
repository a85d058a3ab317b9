open Asym_nvm

let check = Alcotest.check
let lat = Asym_sim.Latency.default
let mk ?(cap = 4096) () = Device.create ~name:"t" ~capacity:cap lat

let test_read_write_roundtrip () =
  let d = mk () in
  Device.write d ~addr:100 (Bytes.of_string "hello");
  check Alcotest.string "roundtrip" "hello" (Bytes.to_string (Device.read d ~addr:100 ~len:5))

let test_u64_roundtrip () =
  let d = mk () in
  Device.write_u64 d ~addr:8 0x1234567890ABCDEFL;
  check Alcotest.int64 "u64" 0x1234567890ABCDEFL (Device.read_u64 d ~addr:8)

let test_bounds () =
  let d = mk ~cap:64 () in
  Alcotest.check_raises "oob write"
    (Invalid_argument "Nvm.Device t: access out of bounds (addr=60 len=8 cap=64)") (fun () ->
      Device.write_u64 d ~addr:60 1L);
  Alcotest.check_raises "negative read"
    (Invalid_argument "Nvm.Device t: access out of bounds (addr=-1 len=4 cap=64)") (fun () ->
      ignore (Device.read d ~addr:(-1) ~len:4))

let test_cas () =
  let d = mk () in
  Device.write_u64 d ~addr:0 5L;
  check Alcotest.int64 "cas returns old" 5L
    (Device.compare_and_swap d ~addr:0 ~expected:5L ~desired:9L);
  check Alcotest.int64 "cas applied" 9L (Device.read_u64 d ~addr:0);
  check Alcotest.int64 "failed cas returns current" 9L
    (Device.compare_and_swap d ~addr:0 ~expected:5L ~desired:1L);
  check Alcotest.int64 "failed cas no-op" 9L (Device.read_u64 d ~addr:0)

let test_fetch_add () =
  let d = mk () in
  Device.write_u64 d ~addr:0 10L;
  check Alcotest.int64 "faa old" 10L (Device.fetch_add d ~addr:0 5L);
  check Alcotest.int64 "faa new" 15L (Device.read_u64 d ~addr:0)

let test_torn_write () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "AAAAAAAA");
  Device.write d ~addr:0 (Bytes.of_string "BBBBBBBB");
  Device.tear_last_write d ~keep:3;
  check Alcotest.string "prefix new, suffix old" "BBBAAAAA"
    (Bytes.to_string (Device.read d ~addr:0 ~len:8))

let test_torn_write_keep_zero () =
  let d = mk () in
  Device.write d ~addr:10 (Bytes.of_string "xyz");
  Device.write d ~addr:10 (Bytes.of_string "abc");
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "fully reverted" "xyz" (Bytes.to_string (Device.read d ~addr:10 ~len:3))

let test_tear_only_once () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "new");
  Device.tear_last_write d ~keep:0;
  (* Second tear is a no-op: bookkeeping was consumed. *)
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "still empty" "\000\000\000" (Bytes.to_string (Device.read d ~addr:0 ~len:3))

let test_torn_write_keep_full () =
  let d = mk () in
  Device.write d ~addr:4 (Bytes.of_string "old!");
  Device.write d ~addr:4 (Bytes.of_string "new!");
  check (Alcotest.option Alcotest.int) "last write is tearable" (Some 4) (Device.last_write_len d);
  (* keep = full length: the boundary case where the "tear" clips nothing. *)
  Device.tear_last_write d ~keep:4;
  check Alcotest.string "write fully intact" "new!" (Bytes.to_string (Device.read d ~addr:4 ~len:4));
  check (Alcotest.option Alcotest.int) "tear bookkeeping still consumed" None
    (Device.last_write_len d);
  (* keep past the write length clamps to a no-op too. *)
  Device.write d ~addr:4 (Bytes.of_string "more");
  Device.tear_last_write d ~keep:99;
  check Alcotest.string "over-long keep clamps" "more"
    (Bytes.to_string (Device.read d ~addr:4 ~len:4))

let test_tear_after_crash_restart () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "acked");
  Device.crash_restart d;
  (* A restart fences torn writes: whatever reached the media before the
     crash is either fully there or was already torn at crash time. *)
  check (Alcotest.option Alcotest.int) "nothing tearable after restart" None
    (Device.last_write_len d);
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "pre-crash write not revertible" "acked"
    (Bytes.to_string (Device.read d ~addr:0 ~len:5))

let test_crash_restart_preserves () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "durable");
  Device.crash_restart d;
  check Alcotest.string "survives" "durable" (Bytes.to_string (Device.read d ~addr:0 ~len:7));
  (* After a clean restart there is nothing to tear. *)
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "still there" "durable" (Bytes.to_string (Device.read d ~addr:0 ~len:7))

(* A snapshot is a detached copy of the media, and a device saved with
   [copy_from] loads back into the original. *)
let test_snapshot_load () =
  let d = mk () in
  Device.write d ~addr:5 (Bytes.of_string "state");
  let snap = Device.snapshot d in
  let saved = mk () in
  Device.copy_from saved ~src:d;
  Device.write d ~addr:5 (Bytes.of_string "XXXXX");
  check Alcotest.string "snapshot detached" "state" (Bytes.sub_string snap 5 5);
  Device.copy_from d ~src:saved;
  check Alcotest.string "restored" "state" (Bytes.to_string (Device.read d ~addr:5 ~len:5));
  check Alcotest.bool "whole media equal" true (Bytes.equal snap (Device.snapshot d))

let test_counters () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.create 10);
  Device.write d ~addr:0 (Bytes.create 6);
  ignore (Device.read d ~addr:0 ~len:4);
  check Alcotest.int "writes" 2 (Device.writes_performed d);
  check Alcotest.int "reads" 1 (Device.reads_performed d);
  check Alcotest.int "bytes written" 16 (Device.bytes_written d)

let test_costs () =
  let d = mk () in
  check Alcotest.int "read cost 1 line" lat.Asym_sim.Latency.nvm_read_ns (Device.read_cost d ~len:64);
  check Alcotest.int "write cost 2 lines" (2 * lat.Asym_sim.Latency.nvm_write_ns)
    (Device.write_cost d ~len:65)

let prop_write_read =
  QCheck.Test.make ~count:300 ~name:"random write/read roundtrip"
    QCheck.(pair (int_bound 1000) (string_of_size Gen.(1 -- 64)))
    (fun (addr, s) ->
      QCheck.assume (String.length s > 0);
      let d = mk () in
      Device.write d ~addr (Bytes.of_string s);
      Bytes.to_string (Device.read d ~addr ~len:(String.length s)) = s)

let prop_tear_is_prefix =
  QCheck.Test.make ~count:300 ~name:"torn write = prefix of new + suffix of old"
    QCheck.(triple (int_bound 100) (string_of_size Gen.(1 -- 32)) small_nat)
    (fun (addr, s, keep) ->
      QCheck.assume (String.length s > 0);
      let d = mk () in
      let old = String.make (String.length s) 'o' in
      Device.write d ~addr (Bytes.of_string old);
      Device.write d ~addr (Bytes.of_string s);
      Device.tear_last_write d ~keep;
      let got = Bytes.to_string (Device.read d ~addr ~len:(String.length s)) in
      let k = min keep (String.length s) in
      got = String.sub s 0 k ^ String.sub old k (String.length s - k))

(* -- paged media against a flat reference -------------------------------- *)

let ps = Device.page_size

(* Three and a bit pages, so the last page is partial. *)
let pcap = (3 * ps) + 100

type op =
  | Write of int * string
  | Write_u64 of int * int64
  | Cas of int * bool * int64  (* [true]: expect the current word *)
  | Fetch_add of int * int64
  | Zero of int * int
  | Tear of int
  | Restart
  | Read of int * int

let show_op = function
  | Write (a, s) ->
      Printf.sprintf "Write(%d,%d bytes%s)" a (String.length s)
        (if String.for_all (( = ) '\000') s then ", zero" else "")
  | Write_u64 (a, v) -> Printf.sprintf "Write_u64(%d,%Ld)" a v
  | Cas (a, hit, v) -> Printf.sprintf "Cas(%d,%b,%Ld)" a hit v
  | Fetch_add (a, d) -> Printf.sprintf "Fetch_add(%d,%Ld)" a d
  | Zero (a, n) -> Printf.sprintf "Zero(%d,%d)" a n
  | Tear k -> Printf.sprintf "Tear %d" k
  | Restart -> "Restart"
  | Read (a, n) -> Printf.sprintf "Read(%d,%d)" a n

(* Addresses crowd page boundaries, where the paging logic splits. *)
let gen_addr len =
  let open QCheck.Gen in
  let clamp a = max 0 (min a (pcap - len)) in
  oneof
    [
      map clamp (int_bound pcap);
      map2 (fun p d -> clamp ((p * ps) + d)) (int_range 1 3) (int_range (-12) 12);
      map (fun p -> clamp (p * ps)) (int_bound 2);
    ]

let gen_op =
  let open QCheck.Gen in
  let len = oneof [ int_range 1 16; int_range 1 200; int_range 1 ((2 * ps) + 10) ] in
  let word = oneof [ return 0L; map Int64.of_int int; ui64 ] in
  frequency
    [
      ( 4,
        len >>= fun n ->
        gen_addr n >>= fun a ->
        oneof [ return (String.make n '\000'); string_size ~gen:printable (return n) ]
        >|= fun s -> Write (a, s) );
      (2, gen_addr 8 >>= fun a -> word >|= fun v -> Write_u64 (a, v));
      (2, gen_addr 8 >>= fun a -> bool >>= fun hit -> word >|= fun v -> Cas (a, hit, v));
      (1, gen_addr 8 >>= fun a -> word >|= fun d -> Fetch_add (a, d));
      ( 2,
        oneof [ len; map (fun k -> k * ps) (int_range 1 2) ] >>= fun n ->
        gen_addr n >|= fun a -> Zero (a, n) );
      (1, int_bound 300 >|= fun k -> Tear k);
      (1, return Restart);
      (3, len >>= fun n -> gen_addr n >|= fun a -> Read (a, n));
    ]

(* The reference: a flat buffer, the last write's pre-image and the three
   counters, updated exactly as the device documents. *)
type model = {
  mem : bytes;
  mutable last : (int * bytes) option;
  mutable reads : int;
  mutable writes : int;
  mutable bytes : int;
}

let model_create () = { mem = Bytes.make pcap '\000'; last = None; reads = 0; writes = 0; bytes = 0 }

let model_write m a b =
  m.last <- Some (a, Bytes.sub m.mem a (Bytes.length b));
  Bytes.blit b 0 m.mem a (Bytes.length b);
  m.writes <- m.writes + 1;
  m.bytes <- m.bytes + Bytes.length b

let word v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

(* Apply [op] to both; [false] if a read disagrees. *)
let step d m op =
  match op with
  | Write (a, s) ->
      Device.write d ~addr:a (Bytes.of_string s);
      model_write m a (Bytes.of_string s);
      true
  | Write_u64 (a, v) ->
      Device.write_u64 d ~addr:a v;
      model_write m a (word v);
      true
  | Cas (a, hit, v) ->
      let cur = Bytes.get_int64_le m.mem a in
      let expected = if hit then cur else Int64.succ cur in
      let old = Device.compare_and_swap d ~addr:a ~expected ~desired:v in
      if hit then model_write m a (word v);
      old = cur
  | Fetch_add (a, delta) ->
      let cur = Bytes.get_int64_le m.mem a in
      let old = Device.fetch_add d ~addr:a delta in
      model_write m a (word (Int64.add cur delta));
      old = cur
  | Zero (a, n) ->
      Device.zero d ~addr:a ~len:n;
      model_write m a (Bytes.make n '\000');
      true
  | Tear keep ->
      Device.tear_last_write d ~keep;
      (match m.last with
      | Some (a, pre) ->
          let k = min keep (Bytes.length pre) in
          Bytes.blit pre k m.mem (a + k) (Bytes.length pre - k)
      | None -> ());
      m.last <- None;
      true
  | Restart ->
      Device.crash_restart d;
      m.last <- None;
      true
  | Read (a, n) ->
      m.reads <- m.reads + 1;
      Bytes.equal (Device.read d ~addr:a ~len:n) (Bytes.sub m.mem a n)

let agrees d m =
  Bytes.equal (Device.snapshot d) m.mem
  && Device.last_write_len d = Option.map (fun (_, pre) -> Bytes.length pre) m.last
  && Device.reads_performed d = m.reads
  && Device.writes_performed d = m.writes
  && Device.bytes_written d = m.bytes

let arb_ops = QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 1 40) gen_op)

let prop_paged_matches_flat =
  QCheck.Test.make ~count:300 ~name:"paged device = flat reference" arb_ops (fun ops ->
      let d = Device.create ~name:"p" ~capacity:pcap lat in
      let m = model_create () in
      List.for_all (fun op -> step d m op && agrees d m) ops)

(* Two devices, each op on either side, and copies in both directions:
   after a copy, neither side ever sees the other's later writes. *)
let prop_copy_isolated =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency
           [ (8, pair bool gen_op >|= fun (left, op) -> `Op (left, op)); (1, bool >|= fun l -> `Copy l) ]))
  in
  let print =
    QCheck.Print.list (function
      | `Op (l, op) -> (if l then "A." else "B.") ^ show_op op
      | `Copy l -> if l then "copy B->A" else "copy A->B")
  in
  QCheck.Test.make ~count:300 ~name:"copy_from sides stay isolated" (QCheck.make ~print gen)
    (fun steps ->
      let da = Device.create ~name:"a" ~capacity:pcap lat in
      let db = Device.create ~name:"b" ~capacity:pcap lat in
      let ma = model_create () and mb = model_create () in
      List.for_all
        (function
          | `Op (true, op) -> step da ma op && agrees da ma && agrees db mb
          | `Op (false, op) -> step db mb op && agrees da ma && agrees db mb
          | `Copy into_a ->
              let dst, src, mdst, msrc = if into_a then (da, db, ma, mb) else (db, da, mb, ma) in
              Device.copy_from dst ~src;
              Bytes.blit msrc.mem 0 mdst.mem 0 pcap;
              agrees da ma && agrees db mb)
        steps)

let test_copy_from_isolated () =
  let a = Device.create ~name:"a" ~capacity:pcap lat in
  let b = Device.create ~name:"b" ~capacity:pcap lat in
  Device.write a ~addr:(ps - 2) (Bytes.of_string "page-straddling");
  Device.write a ~addr:(2 * ps) (Bytes.make ps 'p');
  Device.copy_from b ~src:a;
  check Alcotest.string "copied" "page-straddling"
    (Bytes.to_string (Device.read b ~addr:(ps - 2) ~len:15));
  Device.write b ~addr:ps (Bytes.of_string "B");
  Device.write a ~addr:(ps + 1) (Bytes.of_string "A");
  Device.zero b ~addr:(2 * ps) ~len:ps;
  check Alcotest.string "a keeps its page" (String.make 4 'p')
    (Bytes.to_string (Device.read a ~addr:(2 * ps) ~len:4));
  check Alcotest.string "a sees only its write" "pagA"
    (Bytes.to_string (Device.read a ~addr:(ps - 2) ~len:4));
  check Alcotest.string "b sees only its write" "paBe"
    (Bytes.to_string (Device.read b ~addr:(ps - 2) ~len:4));
  check Alcotest.string "b's page zeroed" "\000\000"
    (Bytes.to_string (Device.read b ~addr:(3 * ps - 2) ~len:2));
  Device.zero a ~addr:0 ~len:pcap;
  check Alcotest.string "b survives a's wipe" "pa"
    (Bytes.to_string (Device.read b ~addr:(ps - 2) ~len:2))

let test_sparse_pages () =
  let d = Device.create ~name:"s" ~capacity:(64 * 1024 * 1024) lat in
  check Alcotest.int "fresh device holds no page" 0 (Device.resident_pages d);
  Device.write d ~addr:100 (Bytes.make (3 * ps) '\000');
  Device.write_u64 d ~addr:8 0L;
  check Alcotest.int "zero writes hold no page" 0 (Device.resident_pages d);
  Device.write d ~addr:(ps - 1) (Bytes.of_string "xy");
  check Alcotest.int "a straddling byte pair makes two" 2 (Device.resident_pages d);
  let e = Device.create ~name:"e" ~capacity:(64 * 1024 * 1024) lat in
  Device.copy_from e ~src:d;
  check Alcotest.int "a copy shares them" 2 (Device.resident_pages e);
  Device.zero e ~addr:0 ~len:(2 * ps);
  check Alcotest.int "zeroing shared pages drops them" 0 (Device.resident_pages e);
  check Alcotest.string "the source keeps them" "xy"
    (Bytes.to_string (Device.read d ~addr:(ps - 1) ~len:2))

let () =
  Alcotest.run "nvm"
    [
      ( "device",
        [
          Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
          Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "cas" `Quick test_cas;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add;
          Alcotest.test_case "torn write" `Quick test_torn_write;
          Alcotest.test_case "torn write keep=0" `Quick test_torn_write_keep_zero;
          Alcotest.test_case "tear only once" `Quick test_tear_only_once;
          Alcotest.test_case "torn write keep=len" `Quick test_torn_write_keep_full;
          Alcotest.test_case "tear after crash/restart" `Quick test_tear_after_crash_restart;
          Alcotest.test_case "crash/restart durability" `Quick test_crash_restart_preserves;
          Alcotest.test_case "snapshot/load" `Quick test_snapshot_load;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "costs" `Quick test_costs;
          QCheck_alcotest.to_alcotest prop_write_read;
          QCheck_alcotest.to_alcotest prop_tear_is_prefix;
        ] );
      ( "paged",
        [
          Alcotest.test_case "sparse pages" `Quick test_sparse_pages;
          Alcotest.test_case "copy_from isolated" `Quick test_copy_from_isolated;
          QCheck_alcotest.to_alcotest prop_paged_matches_flat;
          QCheck_alcotest.to_alcotest prop_copy_isolated;
        ] );
    ]
