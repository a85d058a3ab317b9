(* Tier-1 suite for lib/check: the crash-point explorer, the reference
   models, and the fault fuzzer, on a bounded op budget so `dune runtest`
   stays fast. The full exhaustive sweep is `make crashsweep`. *)

open Asym_core
module Check = Asym_check
module Model = Check.Model
module Subject = Check.Subject
module Explorer = Check.Explorer
module Fuzz = Check.Fuzz

let check = Alcotest.check

(* ---------------- reference models ---------------- *)

let test_model_map_semantics () =
  let m = Model.empty_map in
  let m = Model.apply m (Model.Put (5L, Bytes.of_string "a")) in
  let m = Model.apply m (Model.Put (1L, Bytes.of_string "b")) in
  let m = Model.apply m (Model.Put (5L, Bytes.of_string "c")) in
  let m = Model.apply m (Model.Delete 9L) in
  check
    Alcotest.(list (pair int64 string))
    "sorted, updated, delete of absent key ignored"
    [ (1L, "b"); (5L, "c") ]
    (List.map (fun (k, v) -> (k, Bytes.to_string v)) (Model.dump m))

let test_model_seq_semantics () =
  let strings m = List.map (fun (_, v) -> Bytes.to_string v) (Model.dump m) in
  let l =
    List.fold_left Model.apply Model.empty_lifo
      [ Model.Push (Bytes.of_string "a"); Model.Push (Bytes.of_string "b"); Model.Pop ]
  in
  check Alcotest.(list string) "lifo pops the newest" [ "a" ] (strings l);
  let f =
    List.fold_left Model.apply Model.empty_fifo
      [ Model.Push (Bytes.of_string "a"); Model.Push (Bytes.of_string "b"); Model.Pop ]
  in
  check Alcotest.(list string) "fifo pops the oldest" [ "b" ] (strings f);
  check Alcotest.(list string) "pop on empty is a no-op" []
    (strings (Model.apply Model.empty_lifo Model.Pop))

let test_model_generate_deterministic () =
  let a = Model.generate ~kind:`Map ~ops:40 ~seed:7L in
  let b = Model.generate ~kind:`Map ~ops:40 ~seed:7L in
  check Alcotest.bool "same seed, same schedule" true (a = b);
  let c = Model.generate ~kind:`Map ~ops:40 ~seed:8L in
  check Alcotest.bool "different seed, different schedule" false (a = c)

(* Every structure, driven crash-free through two fixed-seed schedules,
   must agree with its reference model — on the AsymNVM front-end under
   each configuration and on the symmetric baseline, through the same
   catalog attach. *)
type store = Asym of Client.config | Sym of Asym_baseline.Local_store.config

module On_local = Subject.Attach (Asym_baseline.Local_store)

let attach_on store kind =
  let lat = Asym_sim.Latency.default in
  let clock = Asym_sim.Clock.create ~name:"fe" () in
  match store with
  | Asym cfg ->
      let bk =
        Backend.create ~name:"bk" ~max_sessions:4 ~memlog_cap:(512 * 1024)
          ~oplog_cap:(256 * 1024) ~slab_size:4096
          ~capacity:(16 * 1024 * 1024)
          lat
      in
      let fe = Client.connect ~name:"fe" cfg bk ~clock in
      ((Subject.of_kind kind).Subject.attach fe, fun () -> Client.flush fe)
  | Sym cfg ->
      let s = Asym_baseline.Local_store.create ~cfg lat ~clock in
      (On_local.attach kind s, fun () -> Asym_baseline.Local_store.flush s)

let test_subject_matches_model store (s : Subject.t) () =
  List.iter
    (fun seed ->
      let opl = Model.generate ~kind:s.Subject.kind ~ops:60 ~seed in
      let inst, flush = attach_on store s.Subject.structure in
      let model = List.fold_left Model.apply s.Subject.model0 opl in
      List.iter (Subject.apply inst) opl;
      flush ();
      check Alcotest.bool
        (Fmt.str "%s dump = model after 60 ops (seed %Ld)" s.Subject.name seed)
        true
        (inst.Asym_structs.Catalog.dump () = Model.dump model))
    [ 42L; 43L ]

let test_catalog_names () =
  let module Catalog = Asym_structs.Catalog in
  List.iter
    (fun k ->
      check Alcotest.bool (Catalog.label k ^ " round-trips") true
        (Catalog.of_name (Catalog.label k) = Some k);
      check Alcotest.bool (Catalog.module_name k ^ " round-trips") true
        (Catalog.of_name (Catalog.module_name k) = Some k))
    Catalog.all;
  List.iter
    (fun n -> check Alcotest.bool (n ^ " is MV-BPT") true (Catalog.of_name n = Some Catalog.Mv_bpt))
    [ "mv-bpt"; "MVBPT" ];
  check Alcotest.bool "unknown name" true (Catalog.of_name "btree" = None);
  check Alcotest.(list string) "subjects cover the catalog"
    (List.sort compare (List.map Catalog.module_name Catalog.all))
    (List.sort compare Subject.names)

(* ---------------- crash-point census ---------------- *)

let test_census_deterministic () =
  let s = Option.get (Subject.find "pbst") in
  let o1 = Explorer.sweep ~stride:1000 s ~ops:15 ~seed:3L in
  let o2 = Explorer.sweep ~stride:1000 s ~ops:15 ~seed:3L in
  check Alcotest.int "same schedule, same census" o1.Explorer.boundaries o2.Explorer.boundaries;
  check Alcotest.bool "census is non-trivial" true (o1.Explorer.boundaries > 15)

let test_census_sites_gated () =
  (* Only client-initiated verbs count: every site label carries the
     rdma.* context prefix, never a bare backend-local device write. *)
  let s = Option.get (Subject.find "pmvbst") in
  let o = Explorer.sweep ~stride:1000 s ~ops:12 ~seed:1L in
  check Alcotest.bool "has sites" true (o.Explorer.sites <> []);
  List.iter
    (fun (site, _) ->
      check Alcotest.bool (site ^ " is client-initiated") true
        (String.length site >= 5 && String.sub site 0 5 = "rdma."))
    o.Explorer.sites;
  check Alcotest.bool "mv structures expose CAS boundaries" true
    (List.exists (fun (site, _) -> site = "rdma.cas/nvm.cas") o.Explorer.sites)

(* The explorer's torn arm, on the verbs it crashes: the boundary's
   plain write lands all but its last 7 bytes and reports what landed;
   an atomic boundary lands whole and reports nothing. *)
let test_torn_arm_lands_at_the_boundary () =
  let module Crash = Asym_nvm.Crashpoint in
  let module Device = Asym_nvm.Device in
  let module Verbs = Asym_rdma.Verbs in
  let lat = Asym_sim.Latency.default in
  let dev = Device.create ~name:"bk" ~capacity:4096 lat in
  let conn =
    Verbs.connect ~client:(Asym_sim.Clock.create ~name:"fe" ())
      ~remote_nic:(Asym_sim.Timeline.create ~name:"nic" ()) ~remote_mem:dev lat
  in
  let crash_at point f =
    Crash.reset ();
    Crash.arm ~torn:(fun len -> len - 7) point;
    match f () with
    | () -> Alcotest.fail "no crash"
    | exception Crash.Crash_injected n ->
        check Alcotest.int "fired at the armed point" point n;
        let torn = Crash.torn_keep () in
        Crash.reset ();
        torn
  in
  Device.write dev ~addr:0 (Bytes.make 20 'o');
  let torn =
    crash_at 2 (fun () ->
        Verbs.write conn ~addr:0 (Bytes.make 20 'a');
        Verbs.write conn ~addr:0 (Bytes.make 20 'b'))
  in
  check (Alcotest.option Alcotest.int) "rdma.write keeps len - 7" (Some 13) torn;
  check Alcotest.string "the boundary's write landed torn"
    (String.make 13 'b' ^ String.make 7 'a')
    (Bytes.to_string (Device.read dev ~addr:0 ~len:20));
  let torn =
    crash_at 1 (fun () ->
        ignore (Verbs.compare_and_swap conn ~addr:64 ~expected:0L ~desired:9L))
  in
  check (Alcotest.option Alcotest.int) "an atomic boundary is not torn" None torn;
  check Alcotest.int64 "the CAS landed whole" 9L (Device.read_u64 dev ~addr:64)

(* The census labels every boundary in order; its histogram is read from
   those labels, and the labels tell which boundaries can tear. *)
let test_census_labels_each_boundary () =
  let module Crash = Asym_nvm.Crashpoint in
  let module Verbs = Asym_rdma.Verbs in
  let lat = Asym_sim.Latency.default in
  let dev = Asym_nvm.Device.create ~name:"bk" ~capacity:4096 lat in
  let conn =
    Verbs.connect ~client:(Asym_sim.Clock.create ~name:"fe" ())
      ~remote_nic:(Asym_sim.Timeline.create ~name:"nic" ()) ~remote_mem:dev lat
  in
  Fun.protect ~finally:Crash.reset (fun () ->
      Crash.reset ();
      Crash.set_census ();
      Verbs.write conn ~addr:0 (Bytes.make 20 'a');
      ignore (Verbs.compare_and_swap conn ~addr:64 ~expected:0L ~desired:9L);
      Verbs.write conn ~addr:0 (Bytes.make 20 'b');
      let sites = Crash.sites () in
      check
        Alcotest.(array string)
        "one label per boundary, in order"
        [| "rdma.write/nvm.write"; "rdma.cas/nvm.cas"; "rdma.write/nvm.write" |]
        sites;
      check
        Alcotest.(list (pair string int))
        "histogram of the labels"
        [ ("rdma.cas/nvm.cas", 1); ("rdma.write/nvm.write", 2) ]
        (Crash.site_counts ());
      check
        Alcotest.(list bool)
        "only the writes can tear" [ true; false; true ]
        (Array.to_list (Array.map Crash.tearable sites)))

(* A torn run at an atomic boundary is skipped: the torn sweep runs every
   point twice except pmvbst's CAS boundaries (root swaps), 7 of the
   crash census's 64. *)
let test_torn_runs_skip_atomics () =
  let s = Option.get (Subject.find "pmvbst") in
  let clean = Explorer.sweep ~tear:false s ~ops:50 ~seed:1L in
  let torn = Explorer.sweep s ~ops:50 ~seed:1L in
  let atomic =
    List.fold_left
      (fun n (site, k) -> if String.starts_with ~prefix:"rdma.write" site then n else n + k)
      0 clean.Explorer.sites
  in
  check Alcotest.int "CAS boundaries" 7 atomic;
  check Alcotest.int "clean runs" clean.Explorer.boundaries clean.Explorer.points_run;
  check Alcotest.int "torn runs skip the atomics"
    ((2 * clean.Explorer.boundaries) - atomic)
    torn.Explorer.points_run

(* ---------------- the sweep (tentpole acceptance) ---------------- *)

(* One structure exhaustively at every crash point... *)
let test_sweep_exhaustive_pbst () =
  let s = Option.get (Subject.find "pbst") in
  let o = Explorer.sweep s ~ops:25 ~seed:1L in
  check Alcotest.int
    (Fmt.str "pbst exhaustive: %a" Explorer.pp_outcome o)
    0
    (List.length o.Explorer.failures)

(* ...and all eight on a bounded budget (sampled points + torn variants). *)
let test_sweep_all_structures (s : Subject.t) () =
  let o = Explorer.sweep ~stride:3 s ~ops:10 ~seed:2L in
  check Alcotest.int
    (Fmt.str "%a" Explorer.pp_outcome o)
    0
    (List.length o.Explorer.failures);
  check Alcotest.bool "ran at least one point" true (o.Explorer.points_run > 0)

let test_run_point_roundtrip () =
  let s = Option.get (Subject.find "pqueue") in
  let o = Explorer.sweep ~stride:4 s ~ops:12 ~seed:5L in
  check Alcotest.int "sweep clean" 0 (List.length o.Explorer.failures);
  (* Reproducer mode re-runs single points and agrees with the sweep. *)
  check Alcotest.bool "point 1 clean" true
    (Explorer.run_point s ~ops:12 ~seed:5L ~point:1 ~tear:false = None);
  check Alcotest.bool "point 2 torn clean" true
    (Explorer.run_point s ~ops:12 ~seed:5L ~point:2 ~tear:true = None)

(* The checker itself must be falsifiable: disable op-log checksum
   validation and the torn-write sweep has to catch the resulting
   corrupt replay. A sweep that cannot fail checks nothing. *)
let test_sweep_catches_broken_recovery () =
  Fun.protect
    ~finally:(fun () -> Log.crc_check := true)
    (fun () ->
      Log.crc_check := false;
      let s = Option.get (Subject.find "pstack") in
      let o = Explorer.sweep s ~ops:15 ~seed:1L in
      check Alcotest.bool
        (Fmt.str "disabled CRC must surface failures: %a" Explorer.pp_outcome o)
        true
        (o.Explorer.failures <> []);
      (* Every failure names a torn run — the clean variants stay green. *)
      List.iter
        (fun f -> check Alcotest.bool "failure is a torn variant" true (f.Explorer.torn <> None))
        o.Explorer.failures)

(* ---------------- fuzzer ---------------- *)

let test_fuzz_multi_client (s : Subject.t) () =
  let o = Fuzz.run ~clients:2 s ~steps:120 ~seed:11L in
  check
    Alcotest.(list string)
    (Fmt.str "%a" Fuzz.pp_outcome o)
    [] o.Fuzz.failures;
  check Alcotest.bool "applied ops" true (o.Fuzz.ops_applied > 0);
  check Alcotest.bool "validated" true (o.Fuzz.validations > 0)

let test_fuzz_exercises_faults () =
  let s = Option.get (Subject.find "phash") in
  let o = Fuzz.run ~clients:2 s ~steps:200 ~seed:1L in
  check Alcotest.(list string) (Fmt.str "%a" Fuzz.pp_outcome o) [] o.Fuzz.failures;
  check Alcotest.bool "client crashes happened" true (o.Fuzz.client_crashes > 0);
  check Alcotest.bool "backend restarts happened" true (o.Fuzz.backend_restarts > 0);
  check Alcotest.bool "a promotion or mirror crash happened" true
    (o.Fuzz.promotions + o.Fuzz.mirror_crashes > 0)

let test_fuzz_deterministic () =
  let s = Option.get (Subject.find "pstack") in
  let a = Fuzz.run s ~steps:80 ~seed:9L and b = Fuzz.run s ~steps:80 ~seed:9L in
  check Alcotest.int "same ops" a.Fuzz.ops_applied b.Fuzz.ops_applied;
  check Alcotest.int "same promotions" a.Fuzz.promotions b.Fuzz.promotions;
  check Alcotest.(list string) "same failures" a.Fuzz.failures b.Fuzz.failures

let test_fuzz_reproducer () =
  (* The command line must replay the same run: a 3-client or faulty
     failure reproduced with the defaults would be a different schedule. *)
  let s = Option.get (Subject.find "pstack") in
  check Alcotest.string "clients and drop rate"
    "asymnvm check --structure pstack --fuzz 3 --seed 7 --fuzz-clients 3 --fault-drop 0.05"
    (Fuzz.reproducer (Fuzz.run ~clients:3 ~drop:0.05 s ~steps:3 ~seed:7L));
  check Alcotest.string "faults off" "asymnvm check --structure pstack --fuzz 3 --seed 7 --fuzz-clients 2"
    (Fuzz.reproducer (Fuzz.run s ~steps:3 ~seed:7L))

let per_subject f = List.map (fun s -> Alcotest.test_case s.Subject.name `Quick (f s)) Subject.all

let () =
  Alcotest.run "check"
    [
      ( "model",
        [
          Alcotest.test_case "map semantics" `Quick test_model_map_semantics;
          Alcotest.test_case "sequence semantics" `Quick test_model_seq_semantics;
          Alcotest.test_case "deterministic schedules" `Quick test_model_generate_deterministic;
        ] );
      ( "catalog",
        [ Alcotest.test_case "names round-trip" `Quick test_catalog_names ] );
      ("subject vs model", per_subject (test_subject_matches_model (Asym (Client.rcb ~batch_size:8 ()))));
      (* Suite labels stay within 20 characters: a wider label narrows
         Alcotest's column for the case names of every suite. *)
      ("subject naive", per_subject (test_subject_matches_model (Asym (Client.naive ()))));
      ("subject R", per_subject (test_subject_matches_model (Asym (Client.r ()))));
      ("subject RC", per_subject (test_subject_matches_model (Asym (Client.rc ()))));
      ( "subject sym",
        per_subject (test_subject_matches_model (Sym Asym_baseline.Local_store.symmetric)) );
      ( "subject symB",
        per_subject
          (test_subject_matches_model (Sym (Asym_baseline.Local_store.symmetric_b))) );
      ( "census",
        [
          Alcotest.test_case "deterministic" `Quick test_census_deterministic;
          Alcotest.test_case "client-initiated sites only" `Quick test_census_sites_gated;
          Alcotest.test_case "torn arm lands len - 7" `Quick
            test_torn_arm_lands_at_the_boundary;
          Alcotest.test_case "census labels each boundary" `Quick
            test_census_labels_each_boundary;
          Alcotest.test_case "torn runs skip atomics" `Quick test_torn_runs_skip_atomics;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "pbst exhaustive" `Quick test_sweep_exhaustive_pbst;
          Alcotest.test_case "single-point reproducer" `Quick test_run_point_roundtrip;
          Alcotest.test_case "catches disabled CRC validation" `Quick
            test_sweep_catches_broken_recovery;
        ] );
      ("sweep all structures", per_subject (fun s -> test_sweep_all_structures s));
      ( "fuzz",
        [
          Alcotest.test_case "faults exercised, no failures" `Quick test_fuzz_exercises_faults;
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "reproducer" `Quick test_fuzz_reproducer;
        ] );
      ("fuzz all structures", per_subject (fun s -> test_fuzz_multi_client s));
    ]
