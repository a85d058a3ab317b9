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
  Registry.observe "h" 10.0;
  Span.complete ~track:"t" ~ts:0 ~dur:1 "s";
  Span.instant "i";
  check Alcotest.int "counter untouched" 0 (Registry.counter_value "c");
  check Alcotest.bool "histogram untouched" true (Registry.histogram "h" = None);
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
      Registry.add "ops" (-1));
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Registry: ops is a counter, used as a histogram") (fun () ->
      Registry.observe "ops" 1.0)

let test_registry_reset () =
  Registry.inc "a";
  Registry.observe "c" 3.0;
  Registry.reset ();
  check Alcotest.int "counter gone" 0 (Registry.counter_value "a");
  check Alcotest.bool "histogram gone" true (Registry.histogram "c" = None)

let test_registry_json () =
  Registry.inc ~labels:[ ("op", "write") ] "verbs";
  for i = 1 to 100 do
    Registry.observe "lat" (float_of_int i)
  done;
  (* Round-trip through text so the snapshot is known-parseable. *)
  let doc = Json.parse (Json.to_string (Registry.to_json ())) in
  let series key =
    match Json.member key doc with Some j -> Json.to_list j | None -> Alcotest.fail key
  in
  (match series "counters" with
  | [ c ] ->
      check Alcotest.string "counter name" "verbs"
        (Json.to_str (Option.get (Json.member "name" c)));
      check Alcotest.int "counter value" 1 (Json.to_int (Option.get (Json.member "value" c)))
  | l -> Alcotest.failf "expected 1 counter, got %d" (List.length l));
  check (Alcotest.list Alcotest.string) "counters and histograms only"
    [ "counters"; "histograms" ]
    (match doc with Json.Obj kvs -> List.map fst kvs | _ -> []);
  match series "histograms" with
  | [ h ] ->
      check Alcotest.int "histogram total" 100
        (Json.to_int (Option.get (Json.member "total" h)));
      let p50 = Json.to_float (Option.get (Json.member "p50" h)) in
      check Alcotest.bool "p50 in a sane bucket" true (p50 >= 32.0 && p50 <= 64.0)
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l)

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
          Alcotest.test_case "json snapshot" `Quick (with_obs test_registry_json);
        ] );
      ( "span",
        [
          Alcotest.test_case "ring cap" `Quick (with_obs test_span_ring_cap);
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace_event" `Quick (with_obs test_chrome_export) ] );
      ( "end-to-end",
        [ Alcotest.test_case "three layers traced" `Quick (with_obs test_three_layers) ] );
    ]
