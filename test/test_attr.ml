(* Latency attribution: the conservation property (every virtual
   nanosecond carries exactly one cause tag, so per-cause sums equal
   elapsed virtual time — zero tolerance), the Timeline queue/service
   split, and the per-clock windowing primitives. *)

open Asym_obs
open Asym_sim
module Runner = Asym_harness.Runner
module Breakdown = Asym_harness.Breakdown

let check = Alcotest.check

let with_obs f () =
  set_enabled true;
  reset ();
  Fun.protect f ~finally:(fun () ->
      reset ();
      set_enabled false)

(* -- sink primitives -------------------------------------------------------- *)

let test_gate () =
  set_enabled false;
  reset ();
  let l = Attr.local_create () in
  Attr.local_charge l Attr.Rdma_rtt 100;
  check Alcotest.int "gate off: charge is a no-op" 0 (Attr.total ());
  check Alcotest.int "gate off: local untouched" 0 (Attr.local_total l);
  set_enabled true;
  Attr.local_charge l Attr.Rdma_rtt 100;
  Attr.local_charge l Attr.Nvm_media 0;
  Attr.local_charge l Attr.Nvm_media (-5);
  check Alcotest.int "non-positive charges ignored" 100 (Attr.local_total l);
  check Alcotest.int "global sink charged too" 100 (Attr.total ());
  check Alcotest.int "charged cause" 100 (Attr.get Attr.Rdma_rtt);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "breakdown lists non-zero causes only"
    [ ("rdma_rtt", 100) ]
    (List.map (fun (c, v) -> (Attr.name c, v)) (Attr.breakdown ()))

let test_names_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.bool (Attr.name c) true (Attr.of_name (Attr.name c) = Some c))
    Attr.all;
  check Alcotest.bool "unknown name" true (Attr.of_name "bogus" = None)

(* Two clocks charge interleaved; a window over clock A sees only A's
   charges, and re-classifying it moves only A's ns. *)
let test_since_reattribute () =
  let a = Clock.create ~name:"a" () and b = Clock.create ~name:"b" () in
  let la = Clock.attr a and lb = Clock.attr b in
  let zero_a = Attr.local_snapshot la and zero_b = Attr.local_snapshot lb in
  Clock.advance ~cause:Attr.Rdma_rtt a 50;
  Clock.advance ~cause:Attr.Rdma_rtt b 40;
  let mark = Attr.local_snapshot la in
  Clock.advance ~cause:Attr.Rdma_rtt a 20;
  Clock.advance ~cause:Attr.Nvm_media b 15;
  Clock.advance ~cause:Attr.Lock_wait a 30;
  Clock.advance ~cause:Attr.Rdma_rtt b 5;
  let delta = Attr.local_since la mark in
  check Alcotest.int "since covers every cause" (List.length Attr.all) (List.length delta);
  check Alcotest.int "rtt delta" 20 (List.assoc Attr.Rdma_rtt delta);
  check Alcotest.int "lock delta" 30 (List.assoc Attr.Lock_wait delta);
  check Alcotest.int "other clock's media not in the window" 0
    (List.assoc Attr.Nvm_media delta);
  let b_before = Attr.local_since lb zero_b in
  (* Re-classify A's window: A's total preserved, its window moved to one
     cause; B's sink untouched; the global sink still sums the locals. *)
  Attr.local_reattribute la ~since:mark Attr.Read_retry;
  let a_after = Attr.local_since la zero_a in
  check Alcotest.int "A's total preserved" 100 (Attr.local_total la);
  check Alcotest.int "window now read_retry" 50 (List.assoc Attr.Read_retry a_after);
  check Alcotest.int "pre-window rtt kept" 50 (List.assoc Attr.Rdma_rtt a_after);
  check Alcotest.int "window lock moved" 0 (List.assoc Attr.Lock_wait a_after);
  let pairs = Alcotest.(list (pair string int)) in
  let named = List.map (fun (c, v) -> (Attr.name c, v)) in
  check pairs "B's sink unchanged" (named b_before) (named (Attr.local_since lb zero_b));
  check pairs "global = sum of the locals"
    (named (List.map2 (fun (c, x) (_, y) -> (c, x + y)) a_after b_before))
    (named (List.map (fun c -> (c, Attr.get c)) Attr.all))

let test_flush_to_registry () =
  let l = Attr.local_create () in
  Attr.local_charge l Attr.Nvm_media 7;
  Attr.local_charge l Attr.Local_compute 3;
  Attr.flush_to_registry ();
  check Alcotest.int "sink cleared" 0 (Attr.total ());
  check Alcotest.int "media counter" 7
    (Registry.counter_value ~labels:[ ("cause", "nvm_media") ] "attr.ns");
  check Alcotest.int "compute counter" 3
    (Registry.counter_value ~labels:[ ("cause", "local_compute") ] "attr.ns")

(* -- clock-level conservation ----------------------------------------------- *)

(* QCheck: any interleaving of tagged advances and wait_untils charges
   exactly the virtual time the clock moved through. *)
let prop_clock_conservation =
  let cause_gen =
    QCheck.Gen.oneofl Attr.all
  in
  let step_gen = QCheck.Gen.(pair cause_gen (int_range 0 5_000)) in
  let arb =
    QCheck.make
      ~print:(fun steps ->
        String.concat ";"
          (List.map (fun (c, d) -> Printf.sprintf "%s+%d" (Attr.name c) d) steps))
      QCheck.Gen.(list_size (int_range 1 200) step_gen)
  in
  QCheck.Test.make ~name:"clock charges == elapsed virtual time" ~count:100 arb
    (fun steps ->
      set_enabled true;
      reset ();
      Fun.protect
        ~finally:(fun () ->
          reset ();
          set_enabled false)
        (fun () ->
          let clk = Clock.create ~name:"prop" () in
          List.iteri
            (fun i (cause, d) ->
              if i mod 3 = 2 then Clock.wait_until ~cause clk (Clock.now clk + d)
              else Clock.advance ~cause clk d)
            steps;
          Attr.total () = Clock.now clk))

(* -- timeline queue/service split ------------------------------------------- *)

let test_timeline_contention () =
  let tl = Timeline.create ~name:"res" () in
  (* Five requests all arriving at t=0 for 100 ns each: request i waits
     i*100 then runs 100. *)
  let finishes =
    List.init 5 (fun _ ->
        let start = Timeline.acquire tl ~at:0 ~dur:100 in
        start + 100)
  in
  check (Alcotest.list Alcotest.int) "FIFO back-to-back grants"
    [ 100; 200; 300; 400; 500 ] finishes;
  check Alcotest.int "queued_total" 1000 (Timeline.queued_total tl);
  let counter n = Registry.counter_value ~labels:[ ("resource", "res") ] n in
  check Alcotest.int "queue_ns counter" 1000 (counter "timeline.queue_ns");
  check Alcotest.int "service_ns counter" 500 (counter "timeline.service_ns");
  (* Per-request conservation: wait + service == completion - request,
     summed over all requests (every request was issued at t=0). *)
  check Alcotest.int "queue + service == sum of sojourn times"
    (List.fold_left (fun acc f -> acc + f) 0 finishes)
    (counter "timeline.queue_ns" + counter "timeline.service_ns")

(* -- whole-stack conservation ----------------------------------------------- *)

(* The acceptance property: a 1000-op BPT RCB run attributes every
   nanosecond of the measured window — per-cause sums equal elapsed
   virtual time with 0 ns tolerance. *)
let test_conservation_bpt_rcb () =
  let cell =
    Breakdown.run_cell ~put_ratio:0.5
      ~rig:(Runner.make_rig Latency.default)
      ~cfg:(Asym_core.Client.rcb ()) ~preload:1000 ~ops:1000 Runner.Bpt
  in
  check Alcotest.int "ops measured" 1000 cell.Breakdown.res.Runner.ops;
  check Alcotest.int "per-cause ns sum to elapsed (exact)"
    cell.Breakdown.res.Runner.elapsed (Breakdown.attr_total cell)

(* Same invariant across all eight structures (smaller runs), under the
   full RCB stack where every subsystem participates. *)
let test_conservation_all_structures () =
  List.iter
    (fun kind ->
      let put_ratio = if Runner.is_fifo kind then 1.0 else 0.5 in
      let cell =
        Breakdown.run_cell ~put_ratio
          ~rig:(Runner.make_rig Latency.default)
          ~cfg:(Asym_core.Client.rcb ()) ~preload:300 ~ops:300 kind
      in
      check Alcotest.int
        (Printf.sprintf "%s: attributed == elapsed" (Runner.ds_name kind))
        cell.Breakdown.res.Runner.elapsed (Breakdown.attr_total cell))
    Runner.all_ds

let () =
  Alcotest.run "attr"
    [
      ( "sink",
        [
          Alcotest.test_case "gate" `Quick test_gate;
          Alcotest.test_case "names round-trip" `Quick (with_obs (fun () -> test_names_roundtrip ()));
          Alcotest.test_case "since/reattribute" `Quick (with_obs (fun () -> test_since_reattribute ()));
          Alcotest.test_case "flush to registry" `Quick (with_obs (fun () -> test_flush_to_registry ()));
        ] );
      ("clock", [ QCheck_alcotest.to_alcotest prop_clock_conservation ]);
      ( "timeline",
        [
          Alcotest.test_case "queue/service under contention" `Quick
            (with_obs (fun () -> test_timeline_contention ()));
        ] );
      ( "conservation",
        [
          Alcotest.test_case "1000-op BPT RCB" `Quick test_conservation_bpt_rcb;
          Alcotest.test_case "all eight structures" `Quick test_conservation_all_structures;
        ] );
    ]
