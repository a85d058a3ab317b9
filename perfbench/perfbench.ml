(* The benchmark program: runs one workload for a host-time budget and
   prints its metrics, the last line a JSON object.

     perfbench.exe --workload bpt-write-rcb --seed 1 --seconds 10 --trace 0

   A run is a sequence of rounds, each a fresh set-up plus one measured
   window over the same seeded inputs, until the windows add up to
   [--seconds] (and at least three rounds ran). Simulated metrics come
   from the first round; every later round must reproduce them exactly,
   which is the built-in determinism check. [host_kops] and [setup_s]
   are the median round's.

   [--trace 0] reports the end-to-end metrics from untraced rounds.
   [--trace 1] reports the per-layer metrics: one round with the
   attribution gate on, then alternating untraced and traced rounds (the
   structure over {!Tracer.Timed}); see perfbench/README.md. *)

open Workload

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let count sim k = fi (List.assoc k sim.counts)

let us lat = Array.map (fun ns -> fi ns /. 1e3) lat
let mean_us lat = if lat = [||] then 0.0 else Asym_util.Stats.mean (us lat)

(* Percentiles of virtual latencies, each with the number of samples at or
   above it (the model's costs are discrete, so the tail often ties). *)
let percentiles name lat =
  let us = us lat in
  let n = Array.length us in
  String.concat ", "
    (List.map
       (fun p ->
         if n = 0 then Printf.sprintf "p%g n/a" p
         else
           let v = Asym_util.Stats.percentile us p in
           let tail = Array.fold_left (fun a x -> if x >= v then a + 1 else a) 0 us in
           Printf.sprintf "p%g %.3f us (%d of %d at or above)" p v tail n)
       [ 50.0; 99.0 ])
  |> Printf.sprintf "%s latency: %s" name

let sim_kops sim = ratio (fi sim.ops) (fi sim.makespan_ns /. 1e9) /. 1e3
let host_kops r = ratio (fi r.sim.ops) r.measure_cpu_s /. 1e3

(* Every round does the same work. Across runs, the median round is
   steadier than the fastest one: how often a round escapes the host's
   memory contention varies from run to run (see perfbench/README.md). *)
let median_host_kops rounds = median (List.map host_kops rounds)

(* -- running rounds ------------------------------------------------------------- *)

let plan ~trace =
  if not trace then fun _ -> Plain
  else fun i -> if i = 0 then Attr else if i mod 2 = 1 then Plain else Traced

(* Also returns the peak RSS after the first round: one set-up and one
   window in a fresh process (later rounds only add allocator slack). *)
let run_rounds w inputs ~seconds ~trace =
  let mode_of = plan ~trace in
  let min_rounds = if trace then 5 else 3 in
  let first = round w inputs ~mode:(mode_of 0) in
  let rss = Host.peak_rss_mb () in
  let rec go i spent acc =
    if i >= min_rounds && spent >= seconds then List.rev acc
    else
      let r = round w inputs ~mode:(mode_of i) in
      go (i + 1) (if r.mode = Attr then spent else spent +. r.measure_s) (r :: acc)
  in
  (go 1 (if first.mode = Attr then 0.0 else first.measure_s) [ first ], rss)

(* Same seed, same inputs: every round's simulated outcome must match. *)
let deterministic rounds =
  match rounds with
  | [] -> true
  | r0 :: rest -> List.for_all (fun r -> r.sim = r0.sim) rest

(* -- metrics ------------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

let end_to_end rounds ~rss =
  let sim = (List.hd rounds).sim in
  let n lat = Printf.sprintf "%d ops" (Array.length lat) in
  [
    m "sim_kops" "KOPS" (sim_kops sim) ~note:(n sim.get_lat ^ " + " ^ n sim.put_lat);
    m "sim_get_mean_us" "us" (mean_us sim.get_lat) ~note:(n sim.get_lat);
    m "sim_put_mean_us" "us" (mean_us sim.put_lat) ~note:(n sim.put_lat);
    m "host_kops" "kops/s" (median_host_kops rounds)
      ~note:(Printf.sprintf "median of %d rounds" (List.length rounds));
    m "setup_s" "s" (median (List.map (fun r -> r.setup_s) rounds))
      ~note:(Printf.sprintf "median of %d rounds" (List.length rounds));
    m "peak_rss_mb" "MiB" rss ~note:"after the first round";
  ]

let per_layer rounds ~(overhead : Tracer.overhead) =
  let sim = (List.hd rounds).sim in
  let of_mode md = List.filter (fun r -> r.mode = md) rounds in
  let plain = of_mode Plain and traced = of_mode Traced in
  let attr = List.hd (of_mode Attr) in
  let ops = fi sim.ops and c = count sim in
  let per_op x = ratio x ops and per_kop x = ratio x (ops /. 1e3) in
  let layer r = Option.get r.layer in
  (* A host time from the traced rounds, per op, median over rounds. *)
  let traced_ns f = median (List.map (fun r -> per_op (f (layer r))) traced) in
  let self k l = fi l.self_ns.(Tracer.index k) in
  let calls k l = fi l.calls.(Tracer.index k) in
  let client_kinds =
    List.filter (fun k -> k <> Tracer.Op && k <> Tracer.Body) Tracer.all_kinds
  in
  let store_calls l = List.fold_left (fun a k -> a +. calls k l) 0.0 client_kinds in
  (* The wrapper's cost in the caller, measured by {!Tracer.calibrate}, is
     taken out of the structure's self time and reported on its own. Each
     client call span still holds its share inside the span (about one
     clock read). *)
  let { Tracer.parent_ns; child_ns } = overhead in
  let wrapper l =
    (parent_ns *. (store_calls l +. calls Tracer.Body l)) +. (child_ns *. calls Tracer.Op l)
  in
  let structure_self l = self Tracer.Op l +. self Tracer.Body l -. wrapper l in
  let kind_ns k = m (Tracer.kind_name k ^ ".host_ns") "ns/op" (traced_ns (self k)) in
  let gets = fi (Array.length sim.get_lat) and retries = c "read_retries" in
  let makespan = fi sim.makespan_ns in
  let virtual_total = fi (List.fold_left (fun a (_, v) -> a + v) 0 attr.attr) in
  let plain_host f = median (List.map (fun r -> f r.host) plain) in
  [
    m "structures.host_ns_per_op" "ns/op" (traced_ns (fun l -> fi l.op_ns));
    m "structures.self_host_ns_per_op" "ns/op" (traced_ns structure_self);
    m "structures.store_calls_per_op" "calls/op" (per_op (store_calls (layer (List.hd traced))));
  ]
  @ List.map kind_ns client_kinds
  @ [
      m "client.flush.host_ns" "ns/op" (traced_ns (fun l -> fi l.flush_ns))
        ~note:"op_end/unlock/flush calls that ran a tx_write (overlaps the above)";
      m "client.read.calls_per_op" "calls/op"
        (per_op (calls Tracer.Read (layer (List.hd traced))));
      m "client.verbs_per_op" "verbs/op" (per_op (c "verbs"));
      m "client.wire_bytes_per_op" "B/op" (per_op (c "wire_bytes"));
      m "client.flushes_per_kop" "1/kop" (per_kop (c "flushes"));
      m "client.read_retry_ratio" "ratio" (ratio retries (gets +. retries));
      m "client.lock_wait_share" "ratio" (ratio (c "lock_wait_ns") (fi sim.writer_ns));
      m "cache.hit_ratio" "ratio" (ratio (c "cache_hits") (c "cache_hits" +. c "cache_misses"));
      m "backend.replayed_entries_per_op" "entries/op" (per_op (c "replayed_entries"));
      m "backend.rpcs_per_kop" "1/kop" (per_kop (c "rpcs"));
      m "backend.cpu_util" "ratio" (ratio (c "cpu_busy_ns") makespan);
      m "backend.nic_util" "ratio" (ratio (c "nic_busy_ns") makespan);
      m "backend.nic_queue_ns_per_op" "ns/op" (per_op (c "nic_queued_ns"));
      m "backend.create_host_s" "s" (median (List.map (fun r -> r.create_s) rounds));
      m "mirror.bytes_replicated_per_op" "B/op" (per_op (c "mirror_bytes"));
      m "device.writes_per_op" "writes/op" (per_op (c "device_writes"));
      m "device.write_amplification" "ratio"
        (ratio (c "device_bytes_written") (fi (sim.puts * value_size)));
      m "device.reads_per_op" "reads/op" (per_op (c "device_reads"));
      m "sched.self_host_ns_per_op" "ns/op"
        (median (List.map (fun r -> per_op (fi r.sched_self_ns)) traced))
        ~note:"0 when no scheduler runs";
    ]
  @ List.map
      (fun (cause, ns) ->
        m ("attr." ^ Asym_obs.Attr.name cause ^ "_share") "ratio" (ratio (fi ns) virtual_total))
      attr.attr
  @ [
      m "host.alloc_words_per_op" "words/op" (plain_host (fun h -> per_op h.Host.words));
      m "host.major_collections_per_kop" "1/kop"
        (plain_host (fun h -> per_kop (fi h.Host.majors)));
      m "host.sys_share" "ratio"
        (plain_host (fun h -> ratio h.Host.sys_s (h.Host.user_s +. h.Host.sys_s)));
      m "trace.host_kops_delta" "kops/s"
        (median_host_kops traced -. median_host_kops plain)
        ~note:"traced minus untraced host_kops";
      m "trace.wrapper_ns_per_op" "ns/op" (traced_ns wrapper);
    ]

(* Share of a traced window's wall time that its op spans, plus the
   scheduler's own time under [Sched], account for. The two sides are
   measured apart (the window by the benchmark loop, the spans by the
   wrapper), so this checks that the spans miss no work and count no
   suspension; what they leave out is the loop between ops. *)
let coverage r =
  match r.layer with
  | None -> None
  | Some l -> Some (ratio (fi (l.op_ns + r.sched_self_ns)) (r.measure_s *. 1e9))

let min_coverage = 0.97

let covered rounds =
  List.for_all
    (fun r -> match coverage r with None -> true | Some c -> c >= min_coverage && c <= 1.0)
    rounds

(* -- output ---------------------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      Printf.printf "%-36s %16.4f %-9s%s\n" x.name x.value x.unit_
        (if x.note = "" then "" else "  (" ^ x.note ^ ")"))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst all) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured host time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans, "FILE write the last traced round's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload all with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 in
  let overhead =
    if trace then Tracer.calibrate () else { Tracer.parent_ns = 0.0; child_ns = 0.0 }
  in
  let inputs = prepare w ~seed:!seed in
  let rounds, rss = run_rounds w inputs ~seconds:!seconds ~trace in
  if trace && !spans <> "" then Tracer.write_chrome !spans ~limit:50_000;
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 rounds in
  let det = deterministic rounds in
  let attr_ok = List.for_all (fun r -> r.attr_ok) rounds in
  let acc = covered rounds in
  let metrics = if trace then per_layer rounds ~overhead else end_to_end rounds ~rss in
  Printf.printf "workload %s, seed %d: %d rounds, %d ops attempted, failed_op_share %g\n" !workload
    !seed (List.length rounds) attempted (ratio (fi failed) (fi attempted));
  let sim = (List.hd rounds).sim in
  print_endline (percentiles "GET" sim.get_lat);
  print_endline (percentiles "PUT" sim.put_lat);
  Printf.printf "rounds (setup_s/host_kops/window wall s/window sys s): %s\n"
    (String.concat " "
       (List.map
          (fun r ->
            Printf.sprintf "%.3f/%.2f/%.2f/%.2f" r.setup_s (host_kops r) r.measure_s r.host.Host.sys_s)
          rounds));
  if trace then begin
    Printf.printf "wrapper per traced call: %.0f ns in the caller, %.0f ns inside the span\n"
      overhead.Tracer.parent_ns overhead.Tracer.child_ns;
    Printf.printf "op spans + sched self / traced window wall: %s (at least %g required)\n"
      (String.concat " "
         (List.filter_map (fun r -> Option.map (Printf.sprintf "%.4f") (coverage r)) rounds))
      min_coverage
  end;
  if not det then print_endline "FAIL: rounds with the same seed disagree on simulated metrics";
  if not attr_ok then print_endline "FAIL: attribution causes do not sum to elapsed virtual time";
  if not acc then print_endline "FAIL: op spans do not account for the traced window";
  let correct = failed = 0 && det && attr_ok && acc in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
