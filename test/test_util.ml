open Asym_util

let check = Alcotest.check

(* -- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:9L in
  for _ = 1 to 1_000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_unit_interval () =
  let r = Rng.create ~seed:11L in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "out of range: %f" f
  done

(* The first draws of two streams, pinned: the generator's state
   representation may change, its output may not. *)
let test_rng_golden () =
  let golden seed expected =
    let r = Rng.create ~seed in
    List.iteri
      (fun i e -> check Alcotest.int64 (Printf.sprintf "seed %Ld draw %d" seed i) e (Rng.next_int64 r))
      expected
  in
  golden 1L
    [
      0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL;
      0x71bb54d8d101b5b9L; 0xc34d0bff90150280L; 0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L;
    ];
  golden 42L
    [
      0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
      0x09bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L;
    ]

let test_rng_copy_continues () =
  let a = Rng.create ~seed:3L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues the stream" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a);
  let c = Rng.copy b in
  check Alcotest.int64 "copies are independent" (Rng.next_int64 b) (Rng.next_int64 c)

let test_rng_split_independent () =
  let a = Rng.create ~seed:5L in
  let b = Rng.split a in
  check Alcotest.bool "split differs" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_uniformity () =
  let r = Rng.create ~seed:21L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let dev = abs (c - (n / 10)) in
      if dev > n / 50 then Alcotest.failf "bucket deviation too large: %d" c)
    buckets

(* [Rng.rem] is [mod] for every 30-bit draw: small bounds exhaustively,
   the bounds on either side of each power of two, and random ones, each
   at the draws where a multiply-shift remainder goes wrong first. *)
let test_rng_rem_is_mod () =
  let r = Rng.create ~seed:23L in
  let top = 1 lsl 30 in
  let bounds =
    List.init 4096 (fun i -> i + 1)
    @ List.concat_map
        (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
        (List.init 30 (fun k -> k + 1))
    @ List.init 300 (fun _ -> 1 + Rng.int r top)
  in
  List.iter
    (fun n ->
      if n >= 1 && n <= top then begin
        let b = Rng.bound n in
        let multiple = (top - 1) / n * n in
        let draws =
          [ 0; 1; n - 1; n; n + 1; top - 1; multiple; multiple - 1 ]
          @ List.init 16 (fun _ -> Rng.int r top)
        in
        List.iter
          (fun x ->
            if x >= 0 && x < top && Rng.rem b x <> x mod n then
              Alcotest.failf "rem %d %d = %d, mod gives %d" x n (Rng.rem b x) (x mod n))
          draws
      end)
    bounds;
  List.iter
    (fun n ->
      match Rng.bound n with
      | _ -> Alcotest.failf "bound %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; -1; top + 1 ]

(* [Rng.argmin] draws what as many [Rng.int] calls draw, returns the first
   of the smallest keys among them, and leaves the generator where those
   calls leave it. *)
let test_rng_argmin_matches_int () =
  let r = Rng.create ~seed:29L in
  List.iter
    (fun n ->
      let b = Rng.bound n in
      let unique = Array.init n Fun.id in
      Rng.shuffle r unique;
      List.iter
        (fun keys ->
          List.iter
            (fun draws ->
              let a = Rng.copy r and o = Rng.copy r in
              for _ = 1 to 50 do
                let best = ref (Rng.int o n) in
                for _ = 2 to draws do
                  let p = Rng.int o n in
                  if keys.(p) < keys.(!best) then best := p
                done;
                let got = Rng.argmin a b ~draws keys in
                if got <> !best then
                  Alcotest.failf "n=%d draws=%d: argmin %d, reference %d" n draws got !best
              done;
              check Alcotest.int64
                (Printf.sprintf "n=%d draws=%d: same state" n draws)
                (Rng.next_int64 o) (Rng.next_int64 a);
              ignore (Rng.next_int64 r))
            [ 0; 1; 2; 32; 100 ])
        [ unique; Array.make n 0; Array.init n (fun i -> i mod 3) ])
    [ 1; 2; 3; 7; 64; 1203; 1562; 4097 ]

(* -- Zipf ------------------------------------------------------------- *)

let test_zipf_range () =
  let r = Rng.create ~seed:1L in
  let z = Zipf.create ~theta:0.99 ~n:1000 r in
  for _ = 1 to 10_000 do
    let v = Zipf.next z in
    if v < 0 || v >= 1000 then Alcotest.failf "zipf out of range: %d" v
  done

let test_zipf_skew () =
  (* Rank 0 must be far more frequent than rank 500 under theta=0.99. *)
  let r = Rng.create ~seed:2L in
  let z = Zipf.create ~theta:0.99 ~n:1000 r in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let v = Zipf.next z in
    counts.(v) <- counts.(v) + 1
  done;
  check Alcotest.bool "rank0 hot" true (counts.(0) > 20 * (counts.(500) + 1))

let test_zipf_low_theta_flatter () =
  let r = Rng.create ~seed:3L in
  let hot theta =
    let z = Zipf.create ~theta ~n:1000 (Rng.copy r) in
    let c = ref 0 in
    for _ = 1 to 50_000 do
      if Zipf.next z = 0 then incr c
    done;
    !c
  in
  check Alcotest.bool "theta .99 hotter than .5" true (hot 0.99 > hot 0.5)

let test_zipf_scrambled_range () =
  let r = Rng.create ~seed:4L in
  let z = Zipf.create ~theta:0.9 ~n:12345 r in
  for _ = 1 to 10_000 do
    let v = Zipf.next_scrambled z in
    if v < 0 || v >= 12345 then Alcotest.failf "scrambled out of range: %d" v
  done

let test_zipf_scrambled_spreads () =
  (* Scrambling must move the hottest item away from rank 0 in most seeds. *)
  let r = Rng.create ~seed:5L in
  let z = Zipf.create ~theta:0.99 ~n:1000 r in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Zipf.next_scrambled z in
    counts.(v) <- counts.(v) + 1
  done;
  (* There must still be a clearly hottest key somewhere. *)
  let mx = Array.fold_left max 0 counts in
  check Alcotest.bool "still skewed" true (mx > 1000)

(* -- Crc32 ------------------------------------------------------------ *)

let test_crc32_known_value () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  check Alcotest.int32 "check vector" 0xCBF43926l (Crc32.digest_string "123456789")

let test_crc32_empty () = check Alcotest.int32 "empty" 0l (Crc32.digest_string "")

let test_crc32_detects_flip () =
  let b = Bytes.of_string "the quick brown fox" in
  let c1 = Crc32.digest_bytes b in
  Bytes.set b 4 'Q';
  check Alcotest.bool "differs" true (c1 <> Crc32.digest_bytes b)

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  check Alcotest.int32 "slice" 0xCBF43926l (Crc32.digest b ~pos:2 ~len:9)

(* The textbook bytewise CRC-32: one table lookup per byte. The library
   digest must agree with it bit for bit, since every stored log frame
   carries this checksum. *)
let reference_crc32 ?(init = 0l) b ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.logand !c 1l <> 0l then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref (Int32.logxor init 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Bytes.get_uint8 b i))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let random_bytes r n = Bytes.init n (fun _ -> Char.chr (Rng.int r 256))

let test_crc32_matches_reference_small () =
  let b = random_bytes (Rng.create ~seed:11L) 80 in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      check Alcotest.int32
        (Printf.sprintf "pos=%d len=%d" pos len)
        (reference_crc32 b ~pos ~len) (Crc32.digest b ~pos ~len)
    done
  done

let test_crc32_matches_reference_4k () =
  let r = Rng.create ~seed:12L in
  for i = 1 to 16 do
    let b = random_bytes r 4096 in
    check Alcotest.int32 (Printf.sprintf "buffer %d" i) (reference_crc32 b ~pos:0 ~len:4096)
      (Crc32.digest_bytes b)
  done

let prop_crc32_chains =
  QCheck.Test.make ~count:300 ~name:"digest (a ^ b) = digest b ~init:(digest a)"
    QCheck.(pair string string)
    (fun (a, b) ->
      let ab = Bytes.of_string (a ^ b) and b = Bytes.of_string b in
      Crc32.digest_bytes ab
      = Crc32.digest ~init:(Crc32.digest_string a) b ~pos:0 ~len:(Bytes.length b)
      && Crc32.digest_bytes ab = reference_crc32 ab ~pos:0 ~len:(Bytes.length ab))

(* [Crc32.digest] (the carry-less multiply kernel on CPUs that have it)
   and [Crc32.table_digest] (slicing-by-8 alone) against the bytewise
   table: slices of 0-64 KiB at offsets 0-15, odd ones included, built as
   16 k + tail so every [len mod 16] tail is drawn, with most lengths near
   the 64 bytes where [digest] starts to fold; over random bytes or bytes
   all >= 0x80 (the top bit of each load), from a random [init] and
   chained across a random cut. *)
let prop_crc32_word_kernel =
  QCheck.Test.make ~count:300 ~name:"word kernel = bytewise table, 0-64 KiB"
    (QCheck.make
       ~print:QCheck.Print.(quad int int int bool)
       QCheck.Gen.(
         quad
           (map2
              (fun k tail -> (16 * k) + tail)
              (frequency [ (4, 0 -- 12); (3, 13 -- 256); (2, 257 -- 4095) ])
              (0 -- 15))
           (0 -- 15) int bool))
    (fun (len, pos, seed, high) ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let b =
        Bytes.init (pos + len + 3) (fun _ ->
            Char.chr (Rng.int r 256 lor if high then 0x80 else 0))
      in
      let init = Int32.of_int (Rng.int r 0x3FFFFFFF * 4 + Rng.int r 4) in
      let cut = Rng.int r (len + 1) in
      let whole = reference_crc32 ~init b ~pos ~len in
      Crc32.digest ~init b ~pos ~len = whole
      && Crc32.table_digest ~init b ~pos ~len = whole
      && Crc32.digest
           ~init:(Crc32.digest ~init b ~pos ~len:cut)
           b ~pos:(pos + cut) ~len:(len - cut)
         = whole)

let test_crc32_1mib_odd_offset () =
  let b = random_bytes (Rng.create ~seed:13L) ((1 lsl 20) + 8) in
  let pos = 3 and len = (1 lsl 20) + 1 in
  let want = reference_crc32 b ~pos ~len in
  check Alcotest.int32 "digest" want (Crc32.digest b ~pos ~len);
  check Alcotest.int32 "table digest" want (Crc32.table_digest b ~pos ~len)

(* -- Codec ------------------------------------------------------------ *)

let test_codec_roundtrip_fixed () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 0xAB;
  Codec.Enc.u16 e 0xBEEF;
  Codec.Enc.u32 e 0xDEADBEEFl;
  Codec.Enc.u64 e 0x1122334455667788L;
  Codec.Enc.string e "hello";
  let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
  check Alcotest.int "u8" 0xAB (Codec.Dec.u8 d);
  check Alcotest.int "u16" 0xBEEF (Codec.Dec.u16 d);
  check Alcotest.int32 "u32" 0xDEADBEEFl (Codec.Dec.u32 d);
  check Alcotest.int64 "u64" 0x1122334455667788L (Codec.Dec.u64 d);
  check Alcotest.string "string" "hello" (Codec.Dec.string d);
  check Alcotest.int "fully consumed" 0 (Codec.Dec.remaining d)

let test_codec_bounds_check () =
  let d = Codec.Dec.of_bytes (Bytes.create 3) in
  Alcotest.check_raises "u32 out of bounds"
    (Invalid_argument "Codec.Dec: out of bounds (pos=0 need=4 len=3)") (fun () ->
      ignore (Codec.Dec.u32 d))

let test_codec_u64i_overflow () =
  let e = Codec.Enc.create () in
  Codec.Enc.u64 e Int64.min_int;
  let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
  Alcotest.check_raises "negative u64i"
    (Invalid_argument "Codec.Dec.u64i: value does not fit in int") (fun () ->
      ignore (Codec.Dec.u64i d))

let prop_string_roundtrip =
  QCheck.Test.make ~count:300 ~name:"enc/dec string+u64 roundtrip"
    QCheck.(pair string (small_list int64))
    (fun (s, xs) ->
      let e = Codec.Enc.create () in
      Codec.Enc.string e s;
      Codec.Enc.u32i e (List.length xs);
      List.iter (Codec.Enc.u64 e) xs;
      let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
      let s' = Codec.Dec.string d in
      let n = Codec.Dec.u32i d in
      let xs' = List.init n (fun _ -> Codec.Dec.u64 d) in
      s = s' && xs = xs')

let prop_positional_accessors =
  QCheck.Test.make ~count:300 ~name:"positional u64 get/set"
    QCheck.(pair int64 (int_bound 56))
    (fun (v, pos) ->
      let b = Bytes.make 64 '\000' in
      Codec.Enc.u64 (Codec.Enc.into b ~pos) v;
      Codec.Dec.u64 (Codec.Dec.of_bytes ~pos b) = v
      && Bytes.get_int64_le b pos = v)

(* -- Stats ------------------------------------------------------------- *)

let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int i) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile a 50.0);
  check (Alcotest.float 1e-9) "p0" 0.0 (Stats.percentile a 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile a 100.0)

(* -- slot index ----------------------------------------------------------------- *)

(* A table that keeps its keys in slots [0, n), the way the page cache
   and the write overlay do, against an association list: random adds,
   removes (the last slot moves into the freed one), lookups, growth and
   clears, over clustered keys so probe runs and backward shifts are long. *)
type index_op = I_add of int | I_remove of int | I_find of int | I_clear

let prop_slot_index_matches_model =
  QCheck.Test.make ~count:150 ~name:"slot index matches an association list"
    (QCheck.make
       QCheck.Gen.(
         list_size (1 -- 400)
           (frequency
              [
                (5, map (fun k -> I_add k) (int_bound 200));
                (3, map (fun k -> I_remove k) (int_bound 200));
                (4, map (fun k -> I_find (k - 5)) (int_bound 210));
                (1, return I_clear);
              ])))
    (fun ops ->
      let idx = Slot_index.create 4 in
      let keys = ref (Array.make 4 0) and n = ref 0 in
      let model () = List.init !n (fun s -> (!keys.(s), s)) in
      List.for_all
        (fun op ->
          (match op with
          | I_add k when Slot_index.find idx ~keys:!keys k < 0 ->
              if !n = Slot_index.capacity idx then begin
                keys := Array.append !keys (Array.make (Array.length !keys) 0);
                Slot_index.grow idx ~keys:!keys !n
              end;
              !keys.(!n) <- k;
              Slot_index.add idx k !n;
              incr n
          | I_add _ -> ()
          | I_remove k ->
              let s = Slot_index.find idx ~keys:!keys k in
              if s >= 0 then begin
                let last = !n - 1 in
                Slot_index.remove idx ~keys:!keys k;
                if s <> last then begin
                  let moved = !keys.(last) in
                  Slot_index.remove idx ~keys:!keys moved;
                  !keys.(s) <- moved;
                  Slot_index.add idx moved s
                end;
                n := last
              end
          | I_find _ -> ()
          | I_clear ->
              Slot_index.clear idx ~keys:!keys !n;
              n := 0);
          let m = model () in
          List.for_all
            (fun k ->
              Slot_index.find idx ~keys:!keys k
              = match List.assoc_opt k m with Some s -> s | None -> -1)
            (List.init 215 (fun k -> k - 5)))
        ops)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float in [0,1)" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "golden streams" `Quick test_rng_golden;
          Alcotest.test_case "copy continues" `Quick test_rng_copy_continues;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "reciprocal remainder is mod" `Quick test_rng_rem_is_mod;
          Alcotest.test_case "argmin draws as int does" `Quick test_rng_argmin_matches_int;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "lower theta flatter" `Quick test_zipf_low_theta_flatter;
          Alcotest.test_case "scrambled range" `Quick test_zipf_scrambled_range;
          Alcotest.test_case "scrambled still skewed" `Quick test_zipf_scrambled_spreads;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known_value;
          Alcotest.test_case "empty" `Quick test_crc32_empty;
          Alcotest.test_case "detects bit flip" `Quick test_crc32_detects_flip;
          Alcotest.test_case "slice" `Quick test_crc32_slice;
          Alcotest.test_case "bytewise reference, lengths 0-64 at offsets 0-7" `Quick
            test_crc32_matches_reference_small;
          Alcotest.test_case "bytewise reference, 4 KiB buffers" `Quick
            test_crc32_matches_reference_4k;
          QCheck_alcotest.to_alcotest prop_crc32_chains;
          QCheck_alcotest.to_alcotest prop_crc32_word_kernel;
          Alcotest.test_case "1 MiB slice at an odd offset" `Quick test_crc32_1mib_odd_offset;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fixed roundtrip" `Quick test_codec_roundtrip_fixed;
          Alcotest.test_case "bounds check" `Quick test_codec_bounds_check;
          Alcotest.test_case "u64i overflow" `Quick test_codec_u64i_overflow;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_positional_accessors;
        ] );
      ("index", [ QCheck_alcotest.to_alcotest prop_slot_index_matches_model ]);
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
    ]
