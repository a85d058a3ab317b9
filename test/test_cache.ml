(* Cache edge cases: the MRU-hit fast path (regression for the [!=]-on-
   boxed-option bug), Hybrid sampling, patches clipped by a short final
   page, and reuse after [clear]. *)

open Asym_core

let check = Alcotest.check
let mk ?(choose_set = 8) ?(cap_pages = 4) policy =
  Cache.create ~choose_set ~policy ~page_size:64
    ~capacity_bytes:(cap_pages * 64)
    (Asym_util.Rng.create ~seed:7L)

let page c = Bytes.make 64 c

(* [Cache.find] as an option of a copy of the page, for assertions. *)
let cached c id =
  let s = Cache.find c id in
  if s < 0 then None
  else Some (Bytes.sub (Cache.arena c) (s * Cache.page_size c) (Cache.page_length c s))

let insert c id page = ignore (Cache.insert c id page ~len:(Bytes.length page))

let test_mru_hit_does_not_relink () =
  let t = mk Cache.Lru in
  insert t 0 (page 'a');
  insert t 1 (page 'b');
  (* Page 1 is MRU. Hitting it repeatedly must leave the recency list
     untouched — the buggy [t.mru != Some n] relinked on every hit. *)
  let before = Cache.relinks t in
  for _ = 1 to 10 do
    ignore (cached t 1)
  done;
  check Alcotest.int "MRU hits do not relink" before (Cache.relinks t);
  (* A hit on a non-MRU page must relink (that is what keeps LRU LRU). *)
  ignore (cached t 0);
  check Alcotest.int "non-MRU hit relinks" (before + 1) (Cache.relinks t);
  check Alcotest.int "all hits counted" 11 (Cache.hits t)

(* Only [Lru] keeps a recency list: [Hybrid] and [Rr] hits, on any page,
   never relink. *)
let test_sampling_hits_do_not_relink () =
  List.iter
    (fun policy ->
      let t = mk policy in
      for id = 0 to 3 do
        insert t id (page 'a')
      done;
      for i = 0 to 39 do
        ignore (cached t (i land 3));
        insert t (i land 3) (page 'b')
      done;
      check Alcotest.int
        (Cache.policy_name policy ^ " hits do not relink")
        0 (Cache.relinks t))
    [ Cache.Hybrid; Cache.Rr ]

let test_mru_recency_still_correct () =
  (* After a run of MRU hits, eviction order must be unchanged: page 0 is
     still the LRU victim. *)
  let t = mk ~cap_pages:2 Cache.Lru in
  insert t 0 (page 'a');
  insert t 1 (page 'b');
  for _ = 1 to 5 do
    ignore (cached t 1)
  done;
  insert t 2 (page 'c');
  check Alcotest.bool "LRU page 0 evicted" true (cached t 0 = None);
  check Alcotest.bool "MRU page 1 kept" true (cached t 1 <> None)

let test_hybrid_evicts_oldest_of_sample () =
  (* With choose_set >= population the sample is exhaustive, so Hybrid
     must behave exactly like LRU: the globally oldest page goes. *)
  let t = mk ~choose_set:64 ~cap_pages:4 Cache.Hybrid in
  for id = 0 to 3 do
    insert t id (page 'x')
  done;
  (* Touch 0 and 2; 1 is now the oldest untouched page. *)
  ignore (cached t 0);
  ignore (cached t 2);
  insert t 4 (page 'y');
  check Alcotest.bool "oldest-of-sample evicted" true (cached t 1 = None);
  List.iter
    (fun id ->
      check Alcotest.bool (Printf.sprintf "page %d survives" id) true (cached t id <> None))
    [ 0; 2; 3; 4 ]

let test_patch_spanning_short_final_page () =
  let t = mk Cache.Lru in
  (* Page 1 holds only 16 bytes (the structure's tail), page 0 is full. *)
  insert t 0 (page 'a');
  insert t 1 (Bytes.make 16 'b');
  (* A patch covering [60, 100) crosses into page 1 but extends past its
     short tail: only bytes [64, 80) of it may land. *)
  Cache.patch t ~addr:60 (Bytes.make 40 'Z');
  (match cached t 0 with
  | Some p ->
      check Alcotest.string "page 0 tail patched" "aZZZZ" (Bytes.to_string (Bytes.sub p 59 5))
  | None -> Alcotest.fail "page 0 evicted");
  match cached t 1 with
  | Some p ->
      check Alcotest.int "short page length preserved" 16 (Bytes.length p);
      check Alcotest.string "short page fully patched" (String.make 16 'Z') (Bytes.to_string p)
  | None -> Alcotest.fail "page 1 evicted"

let test_patch_entirely_past_short_page () =
  let t = mk Cache.Lru in
  insert t 0 (Bytes.make 8 'a');
  (* Addr 32 is inside page 0's range but past its 8 stored bytes: the
     patch must be a no-op, not an out-of-bounds blit. *)
  Cache.patch t ~addr:32 (Bytes.make 8 'Z');
  match cached t 0 with
  | Some p -> check Alcotest.string "untouched" (String.make 8 'a') (Bytes.to_string p)
  | None -> Alcotest.fail "page evicted"

(* An evicted page's slot takes the next page whole: its bytes and its
   length, a short page after a full one and a full one after a short. *)
let test_evicted_slot_takes_new_page () =
  let t = mk ~cap_pages:1 Cache.Lru in
  insert t 0 (page 'a');
  insert t 1 (Bytes.make 16 'b');
  check Alcotest.(option string) "short page replaced the full one" (Some (String.make 16 'b'))
    (Option.map Bytes.to_string (cached t 1));
  check Alcotest.bool "old page gone" true (cached t 0 = None);
  insert t 2 (page 'c');
  check Alcotest.(option string) "full page replaced the short one" (Some (String.make 64 'c'))
    (Option.map Bytes.to_string (cached t 2));
  (* The page was copied in: the caller's buffer is its own again. *)
  let src = page 'd' in
  insert t 3 src;
  Bytes.fill src 0 64 'X';
  check Alcotest.(option string) "copy kept" (Some (String.make 64 'd'))
    (Option.map Bytes.to_string (cached t 3))

let test_clear_then_reuse () =
  let t = mk ~cap_pages:2 Cache.Hybrid in
  insert t 0 (page 'a');
  insert t 1 (page 'b');
  Cache.clear t;
  check Alcotest.int "empty" 0 (Cache.length t);
  check Alcotest.bool "gone" true (cached t 0 = None);
  (* Refill past capacity: eviction and the dense sample array must work
     on the recycled structure. *)
  for id = 10 to 14 do
    insert t id (page 'c')
  done;
  check Alcotest.int "at capacity" 2 (Cache.length t);
  ignore (cached t 14);
  insert t 20 (page 'd');
  check Alcotest.int "still at capacity" 2 (Cache.length t)

(* -- model-based properties ------------------------------------------------ *)

type op = Find of int | Insert of int | Patch of int * int | Clear

let op_gen ~ids =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Find i) (int_bound ids));
        (4, map (fun i -> Insert i) (int_bound ids));
        (1, map2 (fun a l -> Patch (a, l)) (int_bound (64 * (ids + 1))) (int_range 1 100));
        (1, return Clear);
      ])

let ops_arb ~ids = QCheck.make QCheck.Gen.(list_size (int_range 1 400) (op_gen ~ids))
let fill id = Bytes.make 64 (Char.chr (Char.code 'a' + (id mod 26)))

(* Apply [Patch] to a page image the way [Cache.patch] must. *)
let patch_model id data ~addr ~len =
  let base = id * 64 in
  for a = max addr base to min (addr + len) (base + 64) - 1 do
    Bytes.set data (a - base) 'P'
  done

let fail fmt = QCheck.Test.fail_reportf fmt

(* An exact LRU cache as a list, most recent first. Hits, misses, page
   bytes and every evicted id must agree with the real cache. *)
let prop_lru_matches_list_model =
  QCheck.Test.make ~count:300 ~name:"LRU cache matches a list model"
    (QCheck.pair (QCheck.int_range 1 6) (ops_arb ~ids:12))
    (fun (cap, ops) ->
      let t = mk ~cap_pages:cap Cache.Lru in
      let model = ref [] (* (id, bytes) *) and hits = ref 0 and misses = ref 0 in
      let to_front id data = model := (id, data) :: List.remove_assoc id !model in
      let miss id =
        incr misses;
        if cached t id <> None then fail "page %d should be absent" id
      in
      List.iter
        (fun op ->
          (match op with
          | Find id -> (
              match (List.assoc_opt id !model, cached t id) with
              | Some d, Some b ->
                  incr hits;
                  if not (Bytes.equal d b) then fail "page %d: wrong bytes" id;
                  to_front id d
              | None, None -> incr misses
              | Some _, None -> fail "page %d missed, model hits" id
              | None, Some _ -> fail "page %d hit, model misses" id)
          | Insert id ->
              let data = fill id in
              (if (not (List.mem_assoc id !model)) && List.length !model >= cap then
                 let victim, _ = List.nth !model (List.length !model - 1) in
                 model := List.remove_assoc victim !model;
                 insert t id data;
                 miss victim
               else insert t id data);
              to_front id (Bytes.copy data)
          | Patch (addr, len) ->
              Cache.patch t ~addr (Bytes.make len 'P');
              List.iter (fun (id, d) -> patch_model id d ~addr ~len) !model
          | Clear ->
              Cache.clear t;
              model := []);
          if Cache.length t <> List.length !model then fail "length differs";
          if Cache.hits t <> !hits || Cache.misses t <> !misses then fail "hit/miss counts differ")
        ops;
      true)

(* Hybrid: the victim is the least recent of [choose_set] pages sampled
   from the dense array with the cache's own stream, drawn here from a
   copy of it. The model keeps the same dense array (swap-remove) and the
   same recency ticks. *)
let prop_hybrid_victim_is_oldest_of_sample =
  QCheck.Test.make ~count:300 ~name:"Hybrid evicts the oldest of its 32 samples"
    (QCheck.pair (QCheck.int_range 1 48) (ops_arb ~ids:96))
    (fun (cap, ops) ->
      let rng = Asym_util.Rng.create ~seed:11L in
      let t = Cache.create ~policy:Cache.Hybrid ~page_size:64 ~capacity_bytes:(cap * 64) rng in
      let dense = Array.make cap (-1) and count = ref 0 in
      let last_use = Hashtbl.create 16 and tick = ref 0 in
      let touch id =
        incr tick;
        Hashtbl.replace last_use id !tick
      in
      let slot id =
        let rec go i = if i >= !count then None else if dense.(i) = id then Some i else go (i + 1) in
        go 0
      in
      List.iter
        (fun op ->
          match op with
          | Find id -> (
              match (slot id, cached t id) with
              | Some _, Some _ -> touch id
              | None, None -> ()
              | _ -> fail "page %d: hit/miss differs" id)
          | Insert id when slot id <> None ->
              insert t id (fill id);
              touch id
          | Insert id ->
              let victim =
                if !count < cap then None
                else begin
                  let r = Asym_util.Rng.copy rng in
                  let best = ref dense.(Asym_util.Rng.int r !count) in
                  for _ = 2 to 32 do
                    let c = dense.(Asym_util.Rng.int r !count) in
                    if Hashtbl.find last_use c < Hashtbl.find last_use !best then best := c
                  done;
                  Some !best
                end
              in
              insert t id (fill id);
              (match victim with
              | None -> ()
              | Some v ->
                  let i = Option.get (slot v) in
                  decr count;
                  dense.(i) <- dense.(!count);
                  Hashtbl.remove last_use v;
                  if cached t v <> None then fail "expected victim %d still cached" v);
              dense.(!count) <- id;
              incr count;
              touch id
          | Patch (addr, len) -> Cache.patch t ~addr (Bytes.make len 'P')
          | Clear ->
              Cache.clear t;
              count := 0;
              Hashtbl.reset last_use)
        ops;
      Cache.length t = !count)

(* -- the reference cache ------------------------------------------------------ *)

(* [Cache_ref] is the implementation the slot arrays and the arena
   replaced. Both caches run the same trace from copies of one random
   stream, each on its own copies of the page buffers. After every step
   the hit, miss and relink counts and the length agree, both hold the
   same pages with the same bytes (read through [peek], which moves
   neither recency nor counters), every find returns the same bytes or
   misses in both, and evictions happen in the same order. Short inserts
   stand for a device's short last page, and a small capacity makes
   evicted slots take new pages. *)
type ref_op = R_find of int | R_insert of int * int | R_patch of int * int | R_clear

let ref_op_gen ~ids =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> R_find i) (int_bound ids));
        ( 4,
          map2
            (fun i short -> R_insert (i, short))
            (int_bound ids)
            (frequency [ (4, return 64); (1, int_range 1 63) ]) );
        (1, map2 (fun a l -> R_patch (a, l)) (int_bound (64 * (ids + 1))) (int_range 1 150));
        (1, return R_clear);
      ])

let print_ref_op = function
  | R_find i -> Printf.sprintf "find %d" i
  | R_insert (i, n) -> Printf.sprintf "insert %d (%d bytes)" i n
  | R_patch (a, n) -> Printf.sprintf "patch %d %d" a n
  | R_clear -> "clear"

type side = {
  find : int -> bytes option;
  peek : int -> bytes option;
  insert : int -> bytes -> unit;
  patch : addr:int -> bytes -> unit;
  clear : unit -> unit;
  stats : unit -> int * int * int * int;  (* hits, misses, relinks, length *)
}

let side_new ~choose_set ~policy ~cap rng =
  let c = Cache.create ~choose_set ~policy ~page_size:64 ~capacity_bytes:(cap * 64) rng in
  let page s = if s < 0 then None else Some (Bytes.sub (Cache.arena c) (s * 64) (Cache.page_length c s)) in
  {
    find = (fun id -> page (Cache.find c id));
    peek = (fun id -> page (Cache.peek c id));
    insert = insert c;
    patch = (fun ~addr b -> Cache.patch c ~addr b);
    clear = (fun () -> Cache.clear c);
    stats = (fun () -> (Cache.hits c, Cache.misses c, Cache.relinks c, Cache.length c));
  }

let side_ref ~choose_set ~policy ~cap rng =
  let policy =
    match policy with
    | Cache.Lru -> Cache_ref.Lru
    | Cache.Rr -> Cache_ref.Rr
    | Cache.Hybrid -> Cache_ref.Hybrid
  in
  let c = Cache_ref.create ~choose_set ~policy ~page_size:64 ~capacity_bytes:(cap * 64) rng in
  {
    find = (fun id -> match Cache_ref.find c id with b -> Some b | exception Not_found -> None);
    peek = Cache_ref.peek c;
    insert = Cache_ref.insert c;
    patch = (fun ~addr b -> Cache_ref.patch c ~addr b);
    clear = (fun () -> Cache_ref.clear c);
    stats =
      (fun () -> (Cache_ref.hits c, Cache_ref.misses c, Cache_ref.relinks c, Cache_ref.length c));
  }

(* Every held page and its bytes, by id. *)
let held ~ids side =
  List.filter_map
    (fun id -> Option.map (fun b -> (id, Bytes.to_string b)) (side.peek id))
    (List.init (ids + 1) Fun.id)

let prop_cache_matches_reference =
  let ids = 60 in
  QCheck.Test.make ~count:300 ~name:"cache matches the reference cache under every policy"
    (QCheck.make
       ~print:QCheck.Print.(quad string int int (list print_ref_op))
       QCheck.Gen.(
         quad
           (oneofl [ "LRU"; "RR"; "Hybrid" ])
           (int_range 1 24) (oneofl [ 1; 2; 8; 32 ])
           (list_size (1 -- 300) (ref_op_gen ~ids))))
    (fun (policy, cap, choose_set, ops) ->
      let policy =
        List.find (fun p -> Cache.policy_name p = policy) [ Cache.Lru; Cache.Rr; Cache.Hybrid ]
      in
      let rng = Asym_util.Rng.create ~seed:(Int64.of_int (cap * 131 + choose_set)) in
      let a = side_new ~choose_set ~policy ~cap (Asym_util.Rng.copy rng) in
      let r = side_ref ~choose_set ~policy ~cap (Asym_util.Rng.copy rng) in
      let evicted_a = ref [] and evicted_r = ref [] in
      List.iteri
        (fun step op ->
          let before_a = held ~ids a and before_r = held ~ids r in
          (match op with
          | R_find id -> (
              match (a.find id, r.find id) with
              | Some x, Some y when Bytes.equal x y -> ()
              | None, None -> ()
              | _ -> fail "step %d: find %d differs" step id)
          | R_insert (id, n) ->
              let page = Bytes.init n (fun i -> Char.chr ((id + i + step) land 0xff)) in
              a.insert id (Bytes.copy page);
              r.insert id (Bytes.copy page)
          | R_patch (addr, len) ->
              let v = Bytes.make len (Char.chr (step land 0xff)) in
              a.patch ~addr v;
              r.patch ~addr v
          | R_clear ->
              a.clear ();
              r.clear ());
          let after_a = held ~ids a and after_r = held ~ids r in
          if after_a <> after_r then fail "step %d: held pages or their bytes differ" step;
          if a.stats () <> r.stats () then fail "step %d: counters differ" step;
          if op <> R_clear then begin
            let gone before after =
              List.filter (fun (id, _) -> not (List.mem_assoc id after)) before |> List.map fst
            in
            evicted_a := List.rev_append (gone before_a after_a) !evicted_a;
            evicted_r := List.rev_append (gone before_r after_r) !evicted_r
          end)
        ops;
      !evicted_a = !evicted_r)

(* The same at the front-end's scale: a full [Hybrid] cache of 1,000 to
   3,000 pages sampling 32, under a trace of mostly evicting inserts and
   skewed finds. After each insert that evicts, the page [Cache] gave up
   (read from the slot it reused) is gone from [Cache_ref] too; both
   start from the same pages and each drops one, so the held sets stay
   equal, and the final sets are compared whole. *)
let prop_hybrid_matches_reference_at_scale =
  QCheck.Test.make ~count:6 ~name:"Hybrid matches the reference cache at 1,000-3,000 pages"
    (QCheck.make
       ~print:QCheck.Print.(pair int int)
       QCheck.Gen.(pair (int_range 1000 3000) (int_bound 1_000_000)))
    (fun (cap, seed) ->
      let trace = Asym_util.Rng.create ~seed:(Int64.of_int seed) in
      let rng = Asym_util.Rng.create ~seed:(Int64.of_int (seed + 1)) in
      let c =
        Cache.create ~policy:Cache.Hybrid ~page_size:8 ~capacity_bytes:(cap * 8)
          (Asym_util.Rng.copy rng)
      in
      let r =
        Cache_ref.create ~policy:Cache_ref.Hybrid ~page_size:8 ~capacity_bytes:(cap * 8)
          (Asym_util.Rng.copy rng)
      in
      let ids = 4 * cap and src = Bytes.make 8 'p' in
      let slot_id = Array.make cap (-1) and evictions = ref 0 in
      for step = 1 to 20 * cap do
        let id = Asym_util.Rng.int trace ids in
        if Asym_util.Rng.int trace 10 < 3 then begin
          (* a find, mostly on the hot quarter of the ids *)
          let id = if Asym_util.Rng.bool trace then id / 4 else id in
          let hit = Cache.find c id >= 0 in
          match Cache_ref.find r id with
          | _ -> if not hit then fail "step %d: find %d hits only the reference" step id
          | exception Not_found ->
              if hit then fail "step %d: find %d misses only the reference" step id
        end
        else begin
          let full = Cache.length c = cap and held = Cache.peek c id >= 0 in
          let s = Cache.insert c id src ~len:8 in
          Cache_ref.insert r id src;
          if full && not held then begin
            incr evictions;
            let v = slot_id.(s) in
            if Cache_ref.peek r v <> None then
              fail "step %d: %d evicted, the reference kept it" step v
          end;
          slot_id.(s) <- id
        end
      done;
      let held_by peek = List.filter (fun id -> peek id) (List.init ids Fun.id) in
      let held = held_by (fun id -> Cache.peek c id >= 0) in
      if held <> held_by (fun id -> Cache_ref.peek r id <> None) then fail "held sets differ";
      if !evictions < 5 * cap then fail "only %d evictions" !evictions;
      true)

(* -- allocation ---------------------------------------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Once warm, a hit, an insert that evicts (Hybrid sampling included) and
   a clear allocate nothing: 10,000 of each stay within the few words the
   measurement itself costs. *)
let test_no_allocation () =
  let t = mk ~choose_set:32 ~cap_pages:64 Cache.Hybrid in
  let pages = Array.init 256 (fun i -> page (Char.chr (Char.code 'a' + (i mod 26)))) in
  for id = 0 to 63 do
    insert t id pages.(id)
  done;
  let hits () =
    for _ = 1 to 10_000 do
      for id = 0 to 63 do
        ignore (Cache.find t id)
      done
    done
  in
  let inserts () =
    for i = 0 to 9_999 do
      insert t (i land 255) pages.(i land 255)
    done
  in
  let clears () =
    for i = 0 to 9_999 do
      insert t i pages.(i land 255);
      Cache.clear t
    done
  in
  List.iter
    (fun (name, f) ->
      f ();
      let words = minor_words f in
      if words > 64. then Alcotest.failf "%s allocated %.0f words" name words)
    [ ("hits", hits); ("inserts", inserts); ("clears", clears) ]

let () =
  Alcotest.run "cache"
    [
      ( "recency",
        [
          Alcotest.test_case "MRU hit leaves list untouched" `Quick test_mru_hit_does_not_relink;
          Alcotest.test_case "Hybrid and RR hits never relink" `Quick
            test_sampling_hits_do_not_relink;
          Alcotest.test_case "recency order preserved" `Quick test_mru_recency_still_correct;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "hybrid oldest of sample" `Quick test_hybrid_evicts_oldest_of_sample;
          Alcotest.test_case "evicted slot takes new page" `Quick test_evicted_slot_takes_new_page;
        ]
      );
      ( "patch",
        [
          Alcotest.test_case "spans short final page" `Quick test_patch_spanning_short_final_page;
          Alcotest.test_case "past short page is no-op" `Quick test_patch_entirely_past_short_page;
        ] );
      ("clear", [ Alcotest.test_case "clear then reuse" `Quick test_clear_then_reuse ]);
      ("alloc", [ Alcotest.test_case "warm operations allocate nothing" `Quick test_no_allocation ]);
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lru_matches_list_model;
            prop_hybrid_victim_is_oldest_of_sample;
            prop_cache_matches_reference;
            prop_hybrid_matches_reference_at_scale;
          ] );
    ]
