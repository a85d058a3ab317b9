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
          Alcotest.test_case "fig10 point" `Quick test_fig10_point;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
    ]
