(* The observability subsystem: registry semantics, span-ring behavior
   under overflow, exporter well-formedness, and an
   end-to-end rig run asserting spans surface from every layer. *)

open Asym_obs

let check = Alcotest.check

(* Every test drives the global gate; leave the world clean regardless
   of outcome. *)
let with_obs f () =
  set_enabled true;
  reset ();
  Fun.protect f ~finally:(fun () ->
      reset ();
      set_enabled false)

(* -- registry -------------------------------------------------------------- *)

let test_registry_disabled () =
  set_enabled false;
  reset ();
  Registry.inc "c";
  Registry.add "c" 5;
  Span.complete ~track:"t" ~ts:0 ~dur:1 "s";
  Span.instant "i";
  check Alcotest.int "counter untouched" 0 (Registry.counter_value "c");
  check Alcotest.int "no series at all" 0 (Registry.fold_counters (fun _ _ _ n -> n + 1) 0);
  check (Alcotest.list Alcotest.string) "no spans" []
    (List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()))

let test_registry_counters () =
  Registry.inc "ops";
  Registry.add "ops" 4;
  check Alcotest.int "accumulates" 5 (Registry.counter_value "ops");
  (* Labels distinguish series; their order does not. *)
  Registry.inc ~labels:[ ("op", "write"); ("dev", "a") ] "verbs";
  Registry.inc ~labels:[ ("dev", "a"); ("op", "write") ] "verbs";
  Registry.inc ~labels:[ ("op", "read"); ("dev", "a") ] "verbs";
  check Alcotest.int "label order canonical" 2
    (Registry.counter_value ~labels:[ ("dev", "a"); ("op", "write") ] "verbs");
  check Alcotest.int "distinct labels distinct series" 1
    (Registry.counter_value ~labels:[ ("op", "read"); ("dev", "a") ] "verbs");
  check Alcotest.int "absent series reads 0" 0 (Registry.counter_value "nope");
  Alcotest.check_raises "counters are monotonic"
    (Invalid_argument "Obs.Registry.add: counters are monotonic") (fun () ->
      Registry.add "ops" (-1))

let test_registry_reset () =
  Registry.inc "a";
  Registry.reset ();
  check Alcotest.int "counter gone" 0 (Registry.counter_value "a")

(* -- span ring ------------------------------------------------------------- *)

let test_span_ring_cap () =
  Span.set_capacity 4;
  Fun.protect ~finally:(fun () -> Span.set_capacity 65536) @@ fun () ->
  for i = 1 to 6 do
    Span.complete ~track:"t" ~ts:i ~dur:1 (Printf.sprintf "e%d" i)
  done;
  let names = List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()) in
  check (Alcotest.list Alcotest.string) "oldest evicted, order kept"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  check Alcotest.int "dropped counted" 2 (Span.dropped ())

(* -- Chrome exporter ------------------------------------------------------- *)

let test_chrome_export () =
  Span.complete ~cat:"rdma" ~track:"nic" ~ts:1000 ~dur:500 "rdma.write";
  Span.complete ~cat:"core" ~track:"fe" ~ts:0 ~dur:2000 "client.op";
  Span.instant ~cat:"fault" ~track:"fe" ~ts:1800 "client.crash";
  let doc = Json.parse (Export_chrome.to_string ()) in
  let evs = Json.to_list (Option.get (Json.member "traceEvents" doc)) in
  let ph e = Json.to_str (Option.get (Json.member "ph" e)) in
  let named n = List.find (fun e -> Json.member "name" e = Some (Json.String n)) evs in
  let x = named "rdma.write" in
  check Alcotest.string "complete span is X" "X" (ph x);
  check (Alcotest.float 1e-9) "ts in microseconds" 1.0
    (Json.to_float (Option.get (Json.member "ts" x)));
  check (Alcotest.float 1e-9) "dur in microseconds" 0.5
    (Json.to_float (Option.get (Json.member "dur" x)));
  check Alcotest.string "instant is i" "i" (ph (named "client.crash"));
  (* One thread_name metadata record per track, and tracks get distinct tids. *)
  let meta = List.filter (fun e -> ph e = "M") evs in
  check Alcotest.int "two tracks named" 2 (List.length meta);
  let tid e = Json.to_int (Option.get (Json.member "tid" e)) in
  check Alcotest.bool "tracks on distinct lanes" true (tid x <> tid (named "client.op"))

(* -- harness reports ---------------------------------------------------------- *)

module Obs_report = Asym_harness.Obs_report
module Report = Asym_harness.Report

let series_t = Alcotest.(list (triple string (list (pair string string)) int))

let n_series () = Registry.fold_counters (fun _ _ _ n -> n + 1) 0

(* Each phase keeps exactly the counters recorded inside it: the registry
   is cleared on entry and on exit, labels come back sorted, and the
   phase table's totals are read off the same snapshots. *)
let test_typed_phases () =
  Obs_report.reset_phases ();
  Fun.protect ~finally:Obs_report.reset_phases @@ fun () ->
  Registry.inc "before";
  Obs_report.phase "a" (fun () ->
      Registry.inc ~labels:[ ("op", "write"); ("dev", "x") ] "rdma.verbs";
      Registry.add ~labels:[ ("op", "read") ] "rdma.verbs" 3;
      Registry.add "rdma.wire_bytes" 100);
  check Alcotest.int "registry empty after a phase" 0 (n_series ());
  Registry.inc "between";
  Obs_report.phase "b" (fun () ->
      Registry.add ~labels:[ ("op", "write") ] "rdma.verbs" 2;
      Registry.inc "only.b");
  let snaps = Obs_report.phase_snapshots () in
  check Alcotest.(list string) "phases in order" [ "a"; "b" ] (List.map fst snaps);
  check series_t "phase a"
    [
      ("rdma.verbs", [ ("dev", "x"); ("op", "write") ], 1);
      ("rdma.verbs", [ ("op", "read") ], 3);
      ("rdma.wire_bytes", [], 100);
    ]
    (List.assoc "a" snaps);
  check series_t "phase b"
    [ ("only.b", [], 1); ("rdma.verbs", [ ("op", "write") ], 2) ]
    (List.assoc "b" snaps);
  check
    Alcotest.(list (pair (list (pair string string)) int))
    "counter_series" [ ([ ("op", "write") ], 2) ]
    (Obs_report.counter_series "rdma.verbs" (List.assoc "b" snaps));
  check Alcotest.(list (list string)) "phase table"
    [ [ "a"; "3"; "4"; "100" ]; [ "b"; "2"; "2"; "0" ] ]
    (Report.rows (Obs_report.phases_report ()))

(* Both summaries keep the 15 largest rows, ties broken by name
   (descending), including a tie across the cut. *)
let test_summaries () =
  let span name durs =
    List.iteri (fun i dur -> Span.complete ~track:"t" ~ts:i ~dur name) durs
  in
  span "big" [ 2_500_000_000 ];
  span "mid" [ 1_000_000; 2_000_000 ];
  span "small" [ 1_500; 500 ];
  span "tiny" [ 999 ];
  span "tie_a" [ 700 ];
  span "tie_b" [ 300; 400 ];
  for i = 1 to 12 do
    span (Printf.sprintf "f%02d" i) [ (if i = 3 then 4 else i) ]
  done;
  Span.instant "not a span";
  let fillers = List.init 9 (fun i -> 12 - i) in
  check Alcotest.(list (list string)) "spans"
    ([
       [ "big"; "1"; "2.500s"; "2.500s"; "2.500s" ];
       [ "mid"; "2"; "3.000ms"; "1.500ms"; "2.000ms" ];
       [ "small"; "2"; "2.000us"; "1.000us"; "1.500us" ];
       [ "tiny"; "1"; "999ns"; "999ns"; "999ns" ];
       [ "tie_b"; "2"; "700ns"; "350ns"; "400ns" ];
       [ "tie_a"; "1"; "700ns"; "700ns"; "700ns" ];
     ]
    @ List.map
        (fun i ->
          let ns = Printf.sprintf "%dns" i in
          [ Printf.sprintf "f%02d" i; "1"; ns; ns; ns ])
        fillers)
    (Report.rows (Obs_report.span_summary ()));
  Registry.add ~labels:[ ("op", "write"); ("dev", "a") ] "rdma.verbs" 50;
  Registry.add ~labels:[ ("op", "read"); ("dev", "a") ] "rdma.verbs" 50;
  Registry.add "plain" 40;
  for i = 0 to 13 do
    Registry.add (Printf.sprintf "k%02d" i) (if i = 1 then 3 else i + 1)
  done;
  check Alcotest.(list (list string)) "counters"
    ([
       [ "rdma.verbs{dev=a,op=write}"; "50" ];
       [ "rdma.verbs{dev=a,op=read}"; "50" ];
       [ "plain"; "40" ];
     ]
    @ List.init 12 (fun j ->
          let i = 13 - j in
          [ Printf.sprintf "k%02d" i; string_of_int (i + 1) ]))
    (Report.rows (Obs_report.counter_summary ()))

(* -- end-to-end: spans from every layer ------------------------------------ *)

module Bpt = Asym_structs.Pbptree.Make (Asym_core.Client)

let test_three_layers () =
  let open Asym_core in
  let lat = Asym_sim.Latency.default in
  let bk =
    Backend.create ~name:"bk" ~max_sessions:2 ~memlog_cap:(1024 * 1024)
      ~oplog_cap:(512 * 1024) ~capacity:(16 * 1024 * 1024) lat
  in
  let clock = Asym_sim.Clock.create ~name:"fe" () in
  let fe = Client.connect ~name:"fe" (Client.rcb ()) bk ~clock in
  let t = Bpt.attach fe ~name:"obs" in
  for i = 1 to 200 do
    Bpt.put t ~key:(Int64.of_int i) ~value:(Bytes.of_string (string_of_int i))
  done;
  Client.flush fe;
  Client.crash fe;
  ignore (Client.recover fe);
  let names = List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()) in
  let has prefix =
    List.exists (fun n -> String.length n >= String.length prefix
                          && String.sub n 0 (String.length prefix) = prefix) names
  in
  check Alcotest.bool "rdma layer" true (has "rdma.");
  check Alcotest.bool "core layer" true (has "client.op");
  check Alcotest.bool "log layer" true (has "log.replay_tx");
  check Alcotest.bool "verbs counted" true (Registry.counter_value ~labels:[ ("op", "write") ] "rdma.verbs" > 0);
  (* The trace itself must be parseable. *)
  ignore (Json.parse (Export_chrome.to_string ()))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "disabled is inert" `Quick (with_obs test_registry_disabled);
          Alcotest.test_case "counters + labels" `Quick (with_obs test_registry_counters);
          Alcotest.test_case "reset" `Quick (with_obs test_registry_reset);
        ] );
      ( "span",
        [
          Alcotest.test_case "ring cap" `Quick (with_obs test_span_ring_cap);
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace_event" `Quick (with_obs test_chrome_export) ] );
      ( "report",
        [
          Alcotest.test_case "typed phases" `Quick (with_obs test_typed_phases);
          Alcotest.test_case "summaries" `Quick (with_obs test_summaries);
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "three layers traced" `Quick (with_obs test_three_layers) ] );
    ]
