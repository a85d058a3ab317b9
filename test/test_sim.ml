open Asym_sim

let check = Alcotest.check

(* -- Simtime ----------------------------------------------------------- *)

let test_simtime_units () =
  check Alcotest.int "us" 5_000 (Simtime.us 5);
  check Alcotest.int "ms" 2_000_000 (Simtime.ms 2);
  check Alcotest.int "sec" 1_500_000_000 (Simtime.sec 1.5);
  check (Alcotest.float 1e-12) "to_sec" 0.002 (Simtime.to_sec (Simtime.ms 2));
  check (Alcotest.float 1e-12) "to_us" 3.0 (Simtime.to_us 3_000)

let test_simtime_pp () =
  let s t = Format.asprintf "%a" Simtime.pp t in
  check Alcotest.string "ns" "42ns" (s 42);
  check Alcotest.string "us" "1.500us" (s 1_500);
  check Alcotest.string "ms" "2.000ms" (s 2_000_000);
  check Alcotest.string "s" "3.000s" (s 3_000_000_000)

(* -- Latency ------------------------------------------------------------ *)

let test_latency_lines () =
  check Alcotest.int "0 -> 1 line" 1 (Latency.lines 0);
  check Alcotest.int "1 -> 1 line" 1 (Latency.lines 1);
  check Alcotest.int "64 -> 1 line" 1 (Latency.lines 64);
  check Alcotest.int "65 -> 2 lines" 2 (Latency.lines 65);
  check Alcotest.int "128 -> 2 lines" 2 (Latency.lines 128)

let test_latency_costs () =
  let l = Latency.default in
  check Alcotest.int "nvm read 64B" l.Latency.nvm_read_ns (Latency.nvm_read_cost l 64);
  check Alcotest.int "nvm write 128B" (2 * l.Latency.nvm_write_ns) (Latency.nvm_write_cost l 128);
  check Alcotest.bool "payload grows" true
    (Latency.rdma_payload_ns l 4096 > Latency.rdma_payload_ns l 64)

(* -- Clock -------------------------------------------------------------- *)

let test_clock_advance () =
  let c = Clock.create ~name:"c" () in
  Clock.advance c 100;
  Clock.advance c 50;
  check Alcotest.int "now" 150 (Clock.now c);
  check Alcotest.int "busy" 150 (Clock.busy c)

let test_clock_wait_idle () =
  let c = Clock.create () in
  Clock.advance c 100;
  Clock.wait_until c 500;
  check Alcotest.int "now jumped" 500 (Clock.now c);
  check Alcotest.int "busy unchanged" 100 (Clock.busy c);
  Clock.wait_until c 200;
  check Alcotest.int "no time travel" 500 (Clock.now c)

let test_clock_utilization () =
  let c = Clock.create () in
  Clock.advance c 100;
  Clock.wait_until c 400;
  check (Alcotest.float 1e-9) "25% busy" 0.25 (Clock.utilization c ~since:0 ~busy_since:0)

(* -- Timeline ------------------------------------------------------------ *)

let test_timeline_fifo () =
  let tl = Timeline.create () in
  let s1 = Timeline.acquire tl ~at:0 ~dur:100 in
  let s2 = Timeline.acquire tl ~at:10 ~dur:100 in
  let s3 = Timeline.acquire tl ~at:500 ~dur:10 in
  check Alcotest.int "first starts immediately" 0 s1;
  check Alcotest.int "second queues" 100 s2;
  check Alcotest.int "idle gap respected" 500 s3;
  check Alcotest.int "busy total" 210 (Timeline.busy_total tl)

let test_timeline_backfills_gaps () =
  (* A request arriving (in execution order) after a later booking must
     use the idle gap before it, not queue behind it — this is what keeps
     independent clients from artificially serializing in the co-sim. *)
  let tl = Timeline.create () in
  let s1 = Timeline.acquire tl ~at:1000 ~dur:100 in
  check Alcotest.int "late booking placed" 1000 s1;
  let s2 = Timeline.acquire tl ~at:0 ~dur:100 in
  check Alcotest.int "earlier arrival backfills" 0 s2;
  let s3 = Timeline.acquire tl ~at:0 ~dur:1000 in
  check Alcotest.int "too big for the gap, goes after" 1100 s3

let test_timeline_gap_too_small () =
  let tl = Timeline.create () in
  ignore (Timeline.acquire tl ~at:100 ~dur:50);
  ignore (Timeline.acquire tl ~at:300 ~dur:50);
  (* Gaps: [0,100), [150,300), [350,inf). A 200-long request at 0 only
     fits at 350. *)
  check Alcotest.int "skips both small gaps" 350 (Timeline.acquire tl ~at:0 ~dur:200);
  (* A 100-long request at 0 fits the first gap. *)
  check Alcotest.int "first gap" 0 (Timeline.acquire tl ~at:0 ~dur:100)

let prop_timeline_no_overlap =
  QCheck.Test.make ~count:200 ~name:"timeline slots never overlap"
    QCheck.(small_list (pair (int_bound 5000) (int_range 1 200)))
    (fun reqs ->
      let tl = Timeline.create () in
      let slots = List.map (fun (at, dur) -> (Timeline.acquire tl ~at ~dur, dur)) reqs in
      let sorted = List.sort compare slots in
      let rec ok = function
        | (s1, d1) :: ((s2, _) :: _ as rest) -> s1 + d1 <= s2 && ok rest
        | _ -> true
      in
      ok sorted
      && List.for_all2 (fun (at, _) (start, _) -> start >= at) reqs slots)

(* The append fast path against the general search it short-cuts: random
   booking sequences, mostly in order with some out-of-order requests and
   some zero-length ones, long enough to prune the interval arrays several
   times. *)
let prop_timeline_matches_reference =
  QCheck.Test.make ~count:40 ~name:"timeline append fast path matches the general search"
    QCheck.(triple (int_bound 1_000_000) (int_bound 20_000) (int_bound 40))
    (fun (seed, extra, late_pct) ->
      let rng = Asym_util.Rng.create ~seed:(Int64.of_int seed) in
      let draw = Asym_util.Rng.int rng in
      let tl = Timeline.create () and r = Timeline_ref.create () in
      let edge = ref 0 (* the end of the latest booking *) in
      for _ = 1 to 25_000 + extra do
        let kind = draw 100 in
        let at =
          if kind < late_pct then max 0 (!edge - draw 5_000)
          else if kind < late_pct + 15 then !edge
          else !edge + 1 + draw 500
        in
        let dur = if draw 20 = 0 then 0 else 1 + draw 300 in
        let a = Timeline.acquire tl ~at ~dur and b = Timeline_ref.acquire r ~at ~dur in
        if a <> b then QCheck.Test.fail_reportf "at=%d dur=%d: %d vs %d" at dur a b;
        edge := max !edge (a + dur)
      done;
      (* the reference's horizon moves only when it prunes *)
      if r.Timeline_ref.horizon = 0 then QCheck.Test.fail_reportf "never pruned";
      Timeline.busy_total tl = Timeline_ref.busy_total r
      && Timeline.queued_total tl = Timeline_ref.queued_total r
      && Timeline.free_at tl = Timeline_ref.free_at r)

(* -- Sched ----------------------------------------------------------------- *)

let test_sched_interleaves_by_time () =
  let log = ref [] in
  let mk name cost n =
    let clk = Clock.create ~name () in
    let left = ref n in
    ( clk,
      Sched.client ~clock:clk ~run:(fun () ->
          while !left > 0 do
            decr left;
            log := (name, Clock.now clk) :: !log;
            Clock.advance clk cost
          done) )
  in
  let _, fast = mk "fast" 10 6 in
  let _, slow = mk "slow" 25 3 in
  Sched.run [ fast; slow ];
  let order = List.rev_map fst !log in
  (* With costs 10 vs 25 the fast client must run more often early on. *)
  check Alcotest.int "all steps ran" 9 (List.length order);
  check Alcotest.string "starts with one of each" "fast"
    (match order with a :: _ -> a | [] -> "none")

(* Run [body] counting the [Clock.Yield]s it performs, each passed on to
   the scheduler's own handler. *)
let counting yields body () =
  Effect.Deep.match_with body ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Clock.Yield _ ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  incr yields;
                  Effect.perform e;
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let test_sched_yields_only_when_overtaken () =
  (* A lone client never suspends. *)
  let solo = Clock.create () and n = ref 0 in
  Sched.run
    [
      Sched.client ~clock:solo
        ~run:
          (counting n (fun () ->
               for _ = 1 to 100 do
                 Clock.advance solo 1
               done));
    ];
  check Alcotest.int "one client performs no effect" 0 !n;
  check Alcotest.int "its clock still advanced" 100 (Clock.now solo);
  (* [a] steps by 1 ten times, [b] once by 100: [a] suspends once (at 1,
     past [b]'s 0), then runs to 10 without suspending while it is still
     earliest. The order of events is unchanged. *)
  let a = Clock.create () and b = Clock.create () in
  let ya = ref 0 and yb = ref 0 and log = ref [] in
  let step name clk d =
    Clock.advance clk d;
    log := (name, Clock.now clk) :: !log
  in
  Sched.run
    [
      Sched.client ~clock:a
        ~run:
          (counting ya (fun () ->
               for _ = 1 to 10 do
                 step "a" a 1
               done));
      Sched.client ~clock:b ~run:(counting yb (fun () -> step "b" b 100));
    ];
  check Alcotest.int "a suspends once" 1 !ya;
  check Alcotest.int "b suspends once" 1 !yb;
  check
    Alcotest.(list (pair string int))
    "time order"
    (List.init 10 (fun i -> ("a", i + 1)) @ [ ("b", 100) ])
    (List.rev !log);
  Clock.advance a 5;
  check Alcotest.int "no effect after the run" 15 (Clock.now a)

let test_sched_makespan () =
  let a = Clock.create () and b = Clock.create () in
  Clock.advance a 100;
  Clock.advance b 250;
  check Alcotest.int "makespan" 250 (Sched.makespan [ a; b ])

let () =
  Alcotest.run "sim"
    [
      ( "simtime",
        [
          Alcotest.test_case "units" `Quick test_simtime_units;
          Alcotest.test_case "pretty printing" `Quick test_simtime_pp;
        ] );
      ( "latency",
        [
          Alcotest.test_case "line rounding" `Quick test_latency_lines;
          Alcotest.test_case "cost functions" `Quick test_latency_costs;
        ] );
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "wait is idle" `Quick test_clock_wait_idle;
          Alcotest.test_case "utilization" `Quick test_clock_utilization;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "fifo queueing" `Quick test_timeline_fifo;
          Alcotest.test_case "backfills idle gaps" `Quick test_timeline_backfills_gaps;
          Alcotest.test_case "gap too small" `Quick test_timeline_gap_too_small;
          QCheck_alcotest.to_alcotest prop_timeline_no_overlap;
          QCheck_alcotest.to_alcotest prop_timeline_matches_reference;
        ] );
      ( "sched",
        [
          Alcotest.test_case "virtual-time interleaving" `Quick test_sched_interleaves_by_time;
          Alcotest.test_case "makespan" `Quick test_sched_makespan;
          Alcotest.test_case "yields only when overtaken" `Quick
            test_sched_yields_only_when_overtaken;
        ] );
    ]
