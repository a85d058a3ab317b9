(* Smoke tests of the experiment harness: tiny versions of each runner
   must produce positive, sane throughput and respect the expected
   orderings (the full-size runs live in bench/main.exe). *)

open Asym_harness

let check = Alcotest.check
let lat = Asym_sim.Latency.default
let tiny = { Experiments.preload = 400; ops = 400; subscribers = 50; accounts = 100 }

let run_cell ?put_ratio cfg kind =
  (Runner.run_asym ?put_ratio ~rig:(Runner.make_rig lat) ~cfg ~kind ~preload:tiny.Experiments.preload
     ~ops:tiny.Experiments.ops ())
    .Runner.kops

let test_all_ds_all_configs_positive () =
  List.iter
    (fun kind ->
      List.iter
        (fun cfg ->
          let kops = run_cell cfg kind in
          if kops <= 0.0 then
            Alcotest.failf "%s/%s: non-positive throughput" (Runner.ds_name kind)
              (Asym_core.Client.config_name cfg))
        [ Asym_core.Client.naive (); Asym_core.Client.r (); Asym_core.Client.rcb () ])
    Runner.all_ds

let test_sym_all_ds_positive () =
  List.iter
    (fun kind ->
      let r =
        Runner.run_sym ~lat ~cfg:Asym_baseline.Local_store.symmetric ~kind
          ~preload:tiny.Experiments.preload ~ops:tiny.Experiments.ops ()
      in
      if r.Runner.kops <= 0.0 then Alcotest.failf "%s: non-positive" (Runner.ds_name kind))
    Runner.all_ds

let test_rcb_beats_naive () =
  List.iter
    (fun kind ->
      let naive = run_cell (Asym_core.Client.naive ()) kind in
      let rcb = run_cell (Asym_core.Client.rcb ()) kind in
      if rcb <= naive then
        Alcotest.failf "%s: RCB (%.1f) not faster than naive (%.1f)" (Runner.ds_name kind) rcb
          naive)
    [ Runner.Queue; Runner.Hash_table; Runner.Bpt; Runner.Mv_bpt ]

let test_read_heavy_faster_than_write_heavy () =
  let w = run_cell ~put_ratio:1.0 (Asym_core.Client.rc ()) Runner.Hash_table in
  let r = run_cell ~put_ratio:0.0 (Asym_core.Client.rc ()) Runner.Hash_table in
  check Alcotest.bool "reads cheaper" true (r > w)

let test_trace_runner () =
  let r =
    Runner.run_asym_trace ~rig:(Runner.make_rig lat) ~cfg:(Asym_core.Client.rc ())
      ~kind:Runner.Hash_table ~preload:200 ~ops:200 ~put_ratio:0.5 ()
  in
  check Alcotest.bool "positive" true (r.Runner.kops > 0.0);
  (* The RC client serves reads through its cache: the window's traffic
     must show up in the result. *)
  check Alcotest.bool "cache traffic reported" true (r.Runner.cache_hits + r.Runner.cache_misses > 0)

let test_fig8_point () =
  let p = Multiclient.fig8_point ~kind:Runner.Bst ~readers:2 ~preload:300 ~duration:(Asym_sim.Simtime.ms 3) in
  check Alcotest.bool "reader tput positive" true (p.Multiclient.reader_avg_kops > 0.0);
  check Alcotest.bool "writer tput positive" true (p.Multiclient.writer_kops > 0.0)

let test_fig9_scales () =
  let one = Multiclient.fig9_point ~kind:Runner.Bpt ~n:1 ~preload:300 ~duration:(Asym_sim.Simtime.ms 3) in
  let three = Multiclient.fig9_point ~kind:Runner.Bpt ~n:3 ~preload:300 ~duration:(Asym_sim.Simtime.ms 3) in
  check Alcotest.bool "3 clients beat 1" true (three > 1.5 *. one)

(* Two front-ends racing on one rig: the co-simulated window reproduces
   exactly, both make progress, and each runs until its clock passes the
   deadline. *)
let test_race () =
  let duration = Asym_sim.Simtime.ms 2 in
  let run () =
    let rig = Runner.make_rig lat in
    let racers =
      List.init 2 (fun i ->
          let c =
            Runner.fresh_client ~name:(Printf.sprintf "w%d" i) rig
              (Asym_core.Client.rcb ~batch_size:8 ())
          in
          let inst = Runner.client_instance Runner.Bst c ~name:(Printf.sprintf "ds%d" i) in
          let rng = Asym_util.Rng.create ~seed:(Int64.of_int (10 + i)) in
          ( Asym_core.Client.clock c,
            fun () ->
              let k = Int64.of_int (Asym_util.Rng.int rng 512) in
              inst.Runner.put k (Runner.value_of k) ))
    in
    let t0, counts = Runner.race ~duration racers in
    List.iter
      (fun (clk, _) ->
        check Alcotest.bool "clock ends at or past the deadline" true
          (Asym_sim.Clock.now clk >= t0 + duration))
      racers;
    counts
  in
  let a = run () and b = run () in
  check Alcotest.(list int) "per-client counts identical across runs" a b;
  List.iter (fun n -> check Alcotest.bool "every client made progress" true (n > 0)) a

let test_fig10_point () =
  let k = Multiclient.fig10_point ~kind:Runner.Bpt ~backends:2 ~preload:300 ~ops:300 in
  check Alcotest.bool "partitioned positive" true (k > 0.0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_rendering () =
  let t = Report.create ~title:"t" ~header:[ "a"; "bb" ] ~notes:[ "n" ] () in
  Report.add_row t [ "1"; "2" ];
  Report.add_row t [ "333" ];
  let s = Format.asprintf "%a" Report.render t in
  check Alcotest.bool "title" true (contains s "== t ==");
  check Alcotest.bool "note" true (contains s "note: n");
  check Alcotest.bool "short row padded" true (contains s "333")

(* -- the experiment table ------------------------------------------------------ *)

let entry_names = List.map (fun (e : Suite.t) -> e.name) Suite.all

let test_suite_names_unique () =
  check Alcotest.int "no name twice" (List.length entry_names)
    (List.length (List.sort_uniq compare entry_names))

(* The entries that carry checks, at a tiny scale: a report carries the
   entry's name and every check is filed under it. The other
   entries return none (the bench-all gate holds all 15), and running
   them all here would cost seconds of fixed set-up each. *)
let test_suite_checks_named () =
  let scale =
    {
      Suite.quick with
      sizes = { Experiments.preload = 200; ops = 200; subscribers = 50; accounts = 100 };
      duration = Asym_sim.Simtime.ms 1;
    }
  in
  let checked = [ "table3"; "contention"; "sensitivity"; "latency"; "breakdown"; "faultsweep" ] in
  let nchecks =
    List.fold_left
      (fun n (e : Suite.t) ->
        if not (List.mem e.name checked) then n
        else
          let reports, checks = e.run scale in
          check Alcotest.bool "a report named after its entry" true
            (List.mem_assoc e.name reports);
          List.iter
            (fun (c : Bench_json.check) ->
              check Alcotest.string (e.name ^ "/" ^ c.cname) e.name c.experiment)
            checks;
          n + List.length checks)
      0 Suite.all
  in
  check Alcotest.int "checks across the table" 15 nchecks

(* Table 1 is read from Table 3's runs: one row per non-empty Naive/R/RC/RCB
   structure cell of Table 3, in catalog order, with the same KOPS string. *)
let test_table1_from_table3_cells () =
  let t1, t3, _ =
    Experiments.table3 { Experiments.preload = 64; ops = 64; subscribers = 50; accounts = 100 }
  in
  let structures = List.map Runner.ds_name Runner.all_ds in
  let t3_rows = List.filter (fun row -> List.mem (List.hd row) structures) (Report.rows t3) in
  check Alcotest.(list string) "Table 3 structures in catalog order" structures
    (List.map List.hd t3_rows);
  let configs = List.filteri (fun i _ -> i >= 3) (Report.header t3) in
  let expected =
    List.concat_map
      (fun row ->
        let bench = List.hd row and kops = List.filteri (fun i _ -> i >= 3) row in
        List.filter_map
          (fun (cfg, k) -> if k = "-" then None else Some [ bench; cfg; k ])
          (List.combine configs kops))
      t3_rows
  in
  check Alcotest.(list string) "Naive/R/RC/RCB columns" [ "Naive"; "R"; "RC"; "RCB" ] configs;
  check Alcotest.int "29 asymmetric structure cells" 29 (List.length expected);
  check
    Alcotest.(list (list string))
    "Table 1 rows are Table 3's cells" expected
    (List.map (List.filteri (fun i _ -> i < 3)) (Report.rows t1))

(* -- shape checks on typed input ------------------------------------------------ *)

let verdicts checks = List.map (fun (c : Bench_json.check) -> (c.cname, c.pass)) checks
let verdicts_t = Alcotest.(list (pair string bool))

let detail checks name =
  (List.find (fun (c : Bench_json.check) -> c.cname = name) checks).Bench_json.detail

let t3_row bench =
  {
    Experiments.bench;
    symmetric = 100.;
    symmetric_b = Some 110.;
    naive = 50.;
    r = 100.;
    rc = Some 110.;
    rcb = Some 120.;
  }

let t3_rows = [ t3_row "BPT"; t3_row (Runner.ds_name Runner.Mv_bpt) ]

let test_table3_checks () =
  let run rows = verdicts (Suite.table3_checks "table3" rows) in
  let all_pass =
    [
      ("r_at_least_naive", true);
      ("optimized_speedup", true);
      ("mv_crossover", true);
      ("rc_no_regression", true);
    ]
  in
  check verdicts_t "healthy rows" all_pass (run t3_rows);
  let with_bpt w = w :: List.tl t3_rows in
  let bpt = t3_row "BPT" in
  check verdicts_t "R below 0.98x Naive"
    (("r_at_least_naive", false) :: List.tl all_pass)
    (run (with_bpt { bpt with naive = 50.; r = 48.9; rc = Some 100.; rcb = Some 100. }));
  check Alcotest.string "the failing row is named"
    "log reproducing never loses to Naive (2% slack) (fails at BPT)"
    (detail
       (Suite.table3_checks "table3"
          (with_bpt { bpt with naive = 50.; r = 48.9; rc = Some 100.; rcb = Some 100. }))
       "r_at_least_naive");
  check verdicts_t "best optimized below 1.5x Naive"
    [
      ("r_at_least_naive", true);
      ("optimized_speedup", false);
      ("mv_crossover", true);
      ("rc_no_regression", true);
    ]
    (run (with_bpt { bpt with naive = 90.; r = 100.; rc = Some 110.; rcb = Some 120. }));
  check verdicts_t "MV-BPT RCB below Symmetric"
    [
      ("r_at_least_naive", true);
      ("optimized_speedup", true);
      ("mv_crossover", false);
      ("rc_no_regression", true);
    ]
    (run [ bpt; { (List.nth t3_rows 1) with symmetric = 130. } ]);
  check Alcotest.string "no MV-BPT row" "missing MV-BPT row"
    (detail (Suite.table3_checks "table3" [ bpt ]) "mv_crossover");
  check verdicts_t "the cache costs more than 15%"
    [
      ("r_at_least_naive", true);
      ("optimized_speedup", true);
      ("mv_crossover", true);
      ("rc_no_regression", false);
    ]
    (run (with_bpt { bpt with rc = Some 84. }));
  check verdicts_t "rows without an RC cell are skipped" all_pass
    (run (with_bpt { bpt with rc = None }))

let result mean =
  {
    Runner.kops = 100.;
    ops = 100;
    elapsed = 1_000_000;
    retries = 0;
    cache_hits = 0;
    cache_misses = 0;
    verbs = 0;
    wire_bytes = 0;
    lat_mean_us = mean;
    lat_p50_us = mean;
    lat_p99_us = mean;
  }

let test_latency_checks () =
  let rows rcb_mean =
    [
      (Runner.Hash_table, "Naive", result 10.);
      (Runner.Hash_table, "RCB", result 4.);
      (Runner.Bpt, "Naive", result 10.);
      (Runner.Bpt, "R", result 12.);
      (Runner.Bpt, "RCB", result rcb_mean);
    ]
  in
  check verdicts_t "RCB below Naive" [ ("rcb_mean_latency", true) ]
    (verdicts (Suite.latency_checks "latency" (rows 9.99)));
  let bad = Suite.latency_checks "latency" (rows 10.) in
  check verdicts_t "RCB mean equal to Naive" [ ("rcb_mean_latency", false) ] (verdicts bad);
  check Alcotest.string "the failing structure is named" "RCB mean >= Naive at BPT"
    (detail bad "rcb_mean_latency")

let test_sensitivity_checks () =
  check verdicts_t "RCB ahead everywhere" [ ("rcb_advantage", true) ]
    (verdicts (Suite.sensitivity_checks "sensitivity" [ ("a", 10., 25.); ("b", 10., 11.) ]));
  let bad = Suite.sensitivity_checks "sensitivity" [ ("a", 10., 25.); ("b", 10., 10.) ] in
  check verdicts_t "RCB tied" [ ("rcb_advantage", false) ] (verdicts bad);
  check Alcotest.string "the failing point is named"
    "RCB beats Naive across the whole latency range (fails at b)"
    (detail bad "rcb_advantage")

let point kops share =
  { Multiclient.total_kops = kops; lock_wait_share = share; avg_lock_wait_ns = 0. }

let test_contention_checks () =
  let run points = verdicts (Suite.contention_checks "contention" points) in
  let healthy = [ (1, point 50. 0.1); (4, point 30. 0.5); (8, point 20. 0.8) ] in
  check verdicts_t "share grows, all progress"
    [ ("lock_wait_grows", true); ("throughput_positive", true) ]
    (run healthy);
  check Alcotest.string "shares in percent" "lock-wait share 10.0% at 1 writer -> 80.0% at 8"
    (detail (Suite.contention_checks "contention" healthy) "lock_wait_grows");
  check verdicts_t "share does not grow"
    [ ("lock_wait_grows", false); ("throughput_positive", true) ]
    (run [ (1, point 50. 0.4); (4, point 30. 0.5); (8, point 20. 0.4) ]);
  let stalled = [ (1, point 50. 0.1); (4, point 0. 0.5); (8, point 20. 0.8) ] in
  check verdicts_t "a writer count with 0 kops"
    [ ("lock_wait_grows", true); ("throughput_positive", false) ]
    (run stalled);
  check Alcotest.string "the stalled count is named" "no progress at 4 writers"
    (detail (Suite.contention_checks "contention" stalled) "throughput_positive");
  check verdicts_t "no 8-writer point"
    [ ("lock_wait_grows", false); ("throughput_positive", true) ]
    (run [ (1, point 50. 0.1) ])

let fault_cell config drop ~kops ~retries ~bad_reads =
  {
    Faultsweep.kind = Runner.Bpt;
    config;
    drop;
    kops;
    retries;
    reconnects = 0;
    timeouts = retries;
    delays = 0;
    bad_reads;
  }

let test_faultsweep_checks () =
  let cells ?(bad_reads = 0) ?(top_kops = 80.) ?(zero_retries = 0) () =
    [
      fault_cell "RCB" 0.0 ~kops:100. ~retries:zero_retries ~bad_reads:0;
      fault_cell "RCB" 0.05 ~kops:top_kops ~retries:12 ~bad_reads;
      fault_cell "Naive" 0.0 ~kops:40. ~retries:0 ~bad_reads:0;
      fault_cell "Naive" 0.05 ~kops:30. ~retries:9 ~bad_reads:0;
    ]
  in
  let run c = verdicts (Suite.faultsweep_checks "faultsweep" c) in
  let names = [ "zero_bad_reads"; "throughput_degrades_monotonically"; "retries_track_drop_rate" ] in
  let expect fails = List.map (fun n -> (n, not (List.mem n fails))) names in
  check verdicts_t "healthy sweep" (expect []) (run (cells ()));
  check verdicts_t "a read-back mismatch" (expect [ "zero_bad_reads" ]) (run (cells ~bad_reads:1 ()));
  check verdicts_t "throughput rises past the 5% slack"
    (expect [ "throughput_degrades_monotonically" ])
    (run (cells ~top_kops:106. ()));
  check verdicts_t "throughput within the 5% slack" (expect []) (run (cells ~top_kops:104. ()));
  check verdicts_t "retries with faults off" (expect [ "retries_track_drop_rate" ])
    (run (cells ~zero_retries:1 ()))

let bd_cell kind config ~elapsed attr =
  {
    Breakdown.kind;
    config;
    res = { (result 1.) with Runner.elapsed; ops = 10 };
    attr;
    round_trips = 0;
    resources = [];
  }

let test_breakdown_checks () =
  let open Asym_obs.Attr in
  let cells ?(naive = [ (Rdma_rtt, 800); (Local_compute, 200) ])
      ?(bpt_rcb = [ (Rdma_rtt, 100); (Local_compute, 900) ])
      ?(mv_rcb = [ (Rdma_rtt, 100); (Local_compute, 500); (Nvm_media, 400) ]) ?(elapsed = 1000)
      () =
    [
      bd_cell Runner.Bpt "Naive" ~elapsed:1000 naive;
      bd_cell Runner.Bpt "RCB" ~elapsed bpt_rcb;
      bd_cell Runner.Mv_bpt "RCB" ~elapsed:1000 mv_rcb;
    ]
  in
  let run c = verdicts (Suite.breakdown_checks "breakdown" c) in
  let names = [ "conservation"; "naive_rtt_dominant"; "rcb_local_shift"; "bpt_rtt_collapse" ] in
  let expect fails = List.map (fun n -> (n, not (List.mem n fails))) names in
  check verdicts_t "healthy cells" (expect []) (run (cells ()));
  check verdicts_t "causes do not sum to elapsed" (expect [ "conservation" ])
    (run (cells ~elapsed:999 ()));
  check verdicts_t "naive BPT not RTT-dominated" (expect [ "naive_rtt_dominant" ])
    (run (cells ~naive:[ (Rdma_rtt, 400); (Nvm_media, 600) ] ()));
  check verdicts_t "RCB MV-BPT still RTT-bound" (expect [ "rcb_local_shift" ])
    (run (cells ~mv_rcb:[ (Rdma_rtt, 600); (Local_compute, 400) ] ()));
  check verdicts_t "RCB RTT does not collapse" (expect [ "bpt_rtt_collapse" ])
    (run (cells ~bpt_rcb:[ (Rdma_rtt, 300); (Local_compute, 700) ] ()));
  check verdicts_t "no cells"
    [
      ("conservation", true);
      ("naive_rtt_dominant", false);
      ("rcb_local_shift", false);
      ("bpt_rtt_collapse", false);
    ]
    (run [])

(* -- bench-diff ------------------------------------------------------------------ *)

let bench_doc ?(scale = "quick") ?(rows = [ [ "a"; "100.0" ]; [ "b"; "x" ] ])
    ?(checks = [ ("c", true) ]) ?(experiments = [ "exp" ]) () =
  let report () =
    let t = Report.create ~title:"t" ~header:[ "name"; "kops" ] () in
    List.iter (Report.add_row t) rows;
    t
  in
  (* Through the serialized form, as bench-diff reads it from files. *)
  Asym_obs.Json.parse
    (Asym_obs.Json.to_string
       (Bench_json.doc ~scale
          ~experiments:(List.map (fun n -> (n, report ())) experiments)
          ~checks:
            (List.map
               (fun (cname, pass) -> { Bench_json.experiment = "exp"; cname; pass; detail = "d" })
               checks)))

let diff old_doc new_doc = Bench_json.diff ~old_doc ~new_doc ()
let lines = Alcotest.(list string)

let test_diff_identical () =
  check lines "identical documents" [] (diff (bench_doc ()) (bench_doc ()))

let test_diff_numeric () =
  check lines "3% drift"
    [ "exp/a[1]: 100.0 -> 103.0 (3.0% > 2.0% tolerance)" ]
    (diff (bench_doc ()) (bench_doc ~rows:[ [ "a"; "103.0" ]; [ "b"; "x" ] ] ()));
  check lines "1% drift is inside the tolerance" []
    (diff (bench_doc ()) (bench_doc ~rows:[ [ "a"; "101.0" ]; [ "b"; "x" ] ] ()));
  check lines "a wider tolerance"
    []
    (Bench_json.diff ~tolerance:0.05 ~old_doc:(bench_doc ())
       ~new_doc:(bench_doc ~rows:[ [ "a"; "103.0" ]; [ "b"; "x" ] ] ())
       ())

let test_diff_text () =
  check lines "changed label cell"
    [ {|exp/b[1]: "x" -> "y"|} ]
    (diff (bench_doc ()) (bench_doc ~rows:[ [ "a"; "100.0" ]; [ "b"; "y" ] ] ()))

let test_diff_rows () =
  check lines "row count" [ "exp: row count 2 -> 3" ]
    (diff (bench_doc ()) (bench_doc ~rows:[ [ "a"; "100.0" ]; [ "b"; "x" ]; [ "c"; "1" ] ] ()))

let test_diff_missing_experiment () =
  check lines "experiment gone"
    [ "exp: experiment missing from new document" ]
    (diff (bench_doc ()) (bench_doc ~experiments:[] ()))

let test_diff_new_entries () =
  check lines "a new experiment"
    [ "extra: not in baseline; refresh it" ]
    (diff (bench_doc ()) (bench_doc ~experiments:[ "exp"; "extra" ] ()));
  check lines "a new check"
    [ "exp/d: shape check not in baseline; refresh it" ]
    (diff (bench_doc ()) (bench_doc ~checks:[ ("c", true); ("d", false) ] ()))

let test_diff_checks () =
  check lines "pass -> FAIL"
    [ "exp/c: shape check regressed (pass -> FAIL)" ]
    (diff (bench_doc ()) (bench_doc ~checks:[ ("c", false) ] ()));
  check lines "FAIL -> pass"
    [ "exp/c: shape check now passes (refresh baseline)" ]
    (diff (bench_doc ~checks:[ ("c", false) ] ()) (bench_doc ()));
  check lines "check gone"
    [ "exp/c: shape check missing from new document" ]
    (diff (bench_doc ()) (bench_doc ~checks:[] ()))

let test_diff_scale () =
  check lines "quick vs full"
    [ "scale mismatch: quick vs full (not comparable)" ]
    (diff (bench_doc ()) (bench_doc ~scale:"full" ()))

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "all ds x configs" `Slow test_all_ds_all_configs_positive;
          Alcotest.test_case "symmetric all ds" `Quick test_sym_all_ds_positive;
          Alcotest.test_case "rcb beats naive" `Slow test_rcb_beats_naive;
          Alcotest.test_case "read vs write" `Quick test_read_heavy_faster_than_write_heavy;
          Alcotest.test_case "trace runner" `Quick test_trace_runner;
        ] );
      ( "multiclient",
        [
          Alcotest.test_case "fig8 point" `Quick test_fig8_point;
          Alcotest.test_case "fig9 scaling" `Quick test_fig9_scales;
          Alcotest.test_case "race" `Quick test_race;
          Alcotest.test_case "fig10 point" `Quick test_fig10_point;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "suite",
        [
          Alcotest.test_case "names unique" `Quick test_suite_names_unique;
          Alcotest.test_case "table1 from table3's cells" `Quick test_table1_from_table3_cells;
          Alcotest.test_case "checks filed under their entry" `Quick test_suite_checks_named;
        ] );
      ( "checks",
        [
          Alcotest.test_case "table3" `Quick test_table3_checks;
          Alcotest.test_case "latency" `Quick test_latency_checks;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity_checks;
          Alcotest.test_case "contention" `Quick test_contention_checks;
          Alcotest.test_case "faultsweep" `Quick test_faultsweep_checks;
          Alcotest.test_case "breakdown" `Quick test_breakdown_checks;
        ] );
      ( "bench diff",
        [
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "numeric tolerance" `Quick test_diff_numeric;
          Alcotest.test_case "text cell" `Quick test_diff_text;
          Alcotest.test_case "row count" `Quick test_diff_rows;
          Alcotest.test_case "missing experiment" `Quick test_diff_missing_experiment;
          Alcotest.test_case "new entries" `Quick test_diff_new_entries;
          Alcotest.test_case "verdict flips" `Quick test_diff_checks;
          Alcotest.test_case "scale mismatch" `Quick test_diff_scale;
        ] );
    ]
