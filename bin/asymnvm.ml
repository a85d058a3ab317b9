(* Command-line utility around the AsymNVM framework:

     asymnvm layout --capacity 64   print the device layout for a capacity
     asymnvm demo                   end-to-end put/get/crash/recover run
     asymnvm drill                  exercise all five §7.2 failure cases
     asymnvm check                  crash-point sweep vs. reference models
     asymnvm trace                  traced multi-phase run + Chrome JSON
     asymnvm profile                latency-attribution profile of one cell
     asymnvm bench-diff OLD NEW     compare two bench --json documents

   demo and drill also accept --trace FILE to record the same run;
   check accepts --json FILE for a machine-readable verdict document. *)

open Cmdliner
open Asym_core
open Asym_sim
module Obs = Asym_obs
module Obs_report = Asym_harness.Obs_report
module Bench_json = Asym_harness.Bench_json
module Breakdown = Asym_harness.Breakdown
module Runner = Asym_harness.Runner

let lat = Latency.default

(* -- tracing ---------------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable the observability subsystem for this run and write a Chrome trace_event \
           JSON document to $(docv) (loadable in Perfetto or chrome://tracing).")

(* Run [f] with observability on when a trace file was requested; on the
   way out write the trace and print the plain-text summaries, even if
   [f] raised (a crash drill mid-run should still leave a trace). *)
let with_trace file f =
  match file with
  | None -> f ()
  | Some path ->
      Obs.set_enabled true;
      Obs.reset ();
      Obs_report.reset_phases ();
      Fun.protect f ~finally:(fun () ->
          (try
             Obs.Export_chrome.write_file path;
             Asym_harness.Report.print (Obs_report.span_summary ());
             Asym_harness.Report.print (Obs_report.counter_summary ());
             Fmt.pr "@.trace: %d events (%d dropped) written to %s@."
               (List.length (Obs.Span.events ()))
               (Obs.Span.dropped ()) path
           with Sys_error msg ->
             Fmt.epr "asymnvm: cannot write trace: %s@." msg;
             Obs.set_enabled false;
             exit 1);
          Obs.set_enabled false)

(* -- layout ---------------------------------------------------------------- *)

let layout_cmd =
  let run capacity_mb sessions slab =
    let capacity = capacity_mb * 1024 * 1024 in
    let l =
      try Layout.compute ~capacity ~max_sessions:sessions ~slab_size:slab ()
      with Invalid_argument msg ->
        Fmt.epr "asymnvm: %s@." msg;
        Fmt.epr
          "hint: %d sessions need %d MiB of log rings alone; grow --capacity or shrink \
           --sessions@."
          sessions
          (sessions * 6);
        exit 1
    in
    let row name base len = Fmt.pr "%-12s %#12x  %10d bytes@." name base len in
    Fmt.pr "Layout of a %d MiB back-end (%d sessions, %d-byte slabs):@.@." capacity_mb sessions
      slab;
    row "superblock" 0 l.Layout.naming_base;
    row "naming" l.Layout.naming_base l.Layout.naming_len;
    row "sessions" l.Layout.sessions_base (sessions * Layout.session_slot_len);
    row "meta heap" l.Layout.meta_base l.Layout.meta_len;
    row "bitmap" l.Layout.bitmap_base l.Layout.bitmap_len;
    row "memlog" l.Layout.memlog_base (sessions * l.Layout.memlog_cap);
    row "oplog" l.Layout.oplog_base (sessions * l.Layout.oplog_cap);
    row "data" l.Layout.data_base (l.Layout.n_slabs * l.Layout.slab_size);
    Fmt.pr "@.%d slabs available to the allocator@." l.Layout.n_slabs
  in
  let capacity =
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"MIB" ~doc:"Device capacity in MiB")
  in
  let sessions =
    Arg.(value & opt int 8 & info [ "sessions" ] ~docv:"N" ~doc:"Maximum front-end sessions")
  in
  let slab = Arg.(value & opt int 4096 & info [ "slab" ] ~docv:"BYTES" ~doc:"Slab size") in
  Cmd.v (Cmd.info "layout" ~doc:"Print the NVM device layout for a given capacity")
    Term.(const run $ capacity $ sessions $ slab)

(* -- demo ------------------------------------------------------------------- *)

module Bpt = Asym_structs.Pbptree.Make (Client)

let demo_cmd =
  let run n trace =
    with_trace trace @@ fun () ->
    let bk = Backend.create ~name:"backend" ~capacity:(64 * 1024 * 1024) lat in
    let clock = Clock.create ~name:"fe" () in
    let fe = Client.connect ~name:"fe" (Client.rcb ()) bk ~clock in
    let t = Bpt.attach fe ~name:"demo" in
    let rng = Asym_util.Rng.create ~seed:1L in
    let value k = Bytes.of_string (Int64.to_string k) in
    let keys =
      List.init n (fun _ ->
          let k = Int64.of_int (Asym_util.Rng.int rng (4 * n)) in
          Bpt.put t ~key:k ~value:(value k);
          k)
    in
    (* Crash with the last batch unflushed: recovery replays it. *)
    Fmt.pr "inserted %d keys in %a of virtual time (%d RDMA verbs)@." n Simtime.pp
      (Clock.now clock) (Client.rdma_ops fe);
    Client.crash fe;
    let ops = Client.recover fe in
    (* Re-attach, replay what the memory logs did not cover, read back. *)
    let t = Bpt.attach fe ~name:"demo" in
    let reg = Asym_structs.Registry.create () in
    Asym_structs.Registry.register reg ~ds:(Bpt.handle t).Types.id (Bpt.replay t);
    Asym_structs.Registry.replay_all reg ops;
    Client.flush fe;
    Fmt.pr "crash + recovery: %d operations replayed@." (List.length ops);
    List.iter
      (fun k ->
        if Bpt.find t ~key:k <> Some (value k) then begin
          Fmt.epr "asymnvm: demo: key %Ld does not read back after recovery@." k;
          exit 1
        end)
      keys;
    Fmt.pr "demo OK@."
  in
  let n = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Operations to run") in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"End-to-end insert/crash/recover run; exits 1 if a key does not read back")
    Term.(const run $ n $ trace_arg)

(* -- drill ------------------------------------------------------------------ *)

module H = Asym_structs.Phash.Make (Client)

let drill_cmd =
  let run trace =
    with_trace trace @@ fun () ->
    let ok name cond =
      Fmt.pr "%-38s %s@." name (if cond then "OK" else "FAILED");
      if not cond then exit 1
    in
    let bk =
      Backend.create ~name:"bk" ~max_sessions:4 ~memlog_cap:(1024 * 1024)
        ~oplog_cap:(512 * 1024) ~capacity:(32 * 1024 * 1024) lat
    in
    let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:(32 * 1024 * 1024) lat in
    Backend.attach_mirror bk m;
    let fe = Client.connect ~name:"fe" (Client.rcb ~batch_size:8 ()) bk
        ~clock:(Clock.create ~name:"fe" ()) in
    let h = H.attach ~nbuckets:256 fe ~name:"drill" in
    let reg = Asym_structs.Registry.create () in
    Asym_structs.Registry.register reg ~ds:(H.handle h).Types.id (H.replay h);
    for i = 0 to 99 do
      H.put h ~key:(Int64.of_int i) ~value:(Bytes.of_string (string_of_int i))
    done;
    (* Case 1/2: front-end crash mid-batch. *)
    Client.crash fe;
    let ops = Client.recover fe in
    Asym_structs.Registry.replay_all reg ops;
    Client.flush fe;
    ok "case 1/2: front-end crash + replay" (H.get h ~key:99L <> None);
    (* Case 3: back-end transient failure. *)
    Backend.crash bk;
    (try H.put h ~key:1000L ~value:(Bytes.of_string "x")
     with Asym_rdma.Verbs.Failure_detected _ -> ());
    ignore (Backend.restart bk);
    Asym_structs.Registry.replay_all reg (Client.recover fe);
    Client.flush fe;
    ok "case 3: back-end restart + redo" (H.get h ~key:50L <> None);
    (* Case 4: permanent failure, mirror promotion. *)
    Backend.crash bk;
    (match Asym_cluster.Failover.failover ~dead:bk lat with
    | Some bk' ->
        Asym_structs.Registry.replay_all reg (Client.recover ~backend:bk' fe);
        let h = H.attach ~nbuckets:256 fe ~name:"drill" in
        ok "case 4: mirror promotion" (H.get h ~key:75L <> None)
    | None -> ok "case 4: mirror promotion" false);
    (* Case 5: mirror crash is non-disruptive (no mirror on the promoted
       back-end to lose, so exercise the API). *)
    Mirror.crash m;
    ok "case 5: mirror crash tolerated" (Mirror.is_crashed m);
    Fmt.pr "drill complete@."
  in
  Cmd.v (Cmd.info "drill" ~doc:"Exercise the five failure cases of paper §7.2")
    Term.(const run $ trace_arg)

(* -- check ------------------------------------------------------------------ *)

module Check = Asym_check

(* asymnvm-check/1: machine-readable sweep verdicts (census histogram,
   failure details with one-line reproducers, fuzz counters). *)
let check_schema = "asymnvm-check/1"

let failure_json (o : Check.Explorer.outcome) (f : Check.Explorer.failure) =
  let open Obs.Json in
  Obj
    [
      ("point", Int f.Check.Explorer.point);
      ("site", String f.Check.Explorer.site);
      ( "torn",
        match f.Check.Explorer.torn with Some k -> Int k | None -> Null );
      ("completed", Int f.Check.Explorer.completed);
      ("detail", String f.Check.Explorer.detail);
      ("reproduce", String (Check.Explorer.reproducer o f));
    ]

let sweep_json (o : Check.Explorer.outcome) =
  let open Obs.Json in
  Obj
    [
      ("structure", String o.Check.Explorer.structure);
      ("ops", Int o.Check.Explorer.ops);
      ("seed", String (Int64.to_string o.Check.Explorer.seed));
      ("fault_drop", Float o.Check.Explorer.drop);
      ("boundaries", Int o.Check.Explorer.boundaries);
      ("points_run", Int o.Check.Explorer.points_run);
      ( "sites",
        Obj
          (List.map
             (fun (site, n) -> (site, Int n))
             (List.sort (fun (_, a) (_, b) -> compare b a) o.Check.Explorer.sites)) );
      ("failures", List (List.map (failure_json o) o.Check.Explorer.failures));
    ]

let fuzz_json (o : Check.Fuzz.outcome) =
  let open Obs.Json in
  Obj
    [
      ("structure", String o.Check.Fuzz.structure);
      ("clients", Int o.Check.Fuzz.clients);
      ("steps", Int o.Check.Fuzz.steps);
      ("seed", String (Int64.to_string o.Check.Fuzz.seed));
      ("ops_applied", Int o.Check.Fuzz.ops_applied);
      ("validations", Int o.Check.Fuzz.validations);
      ("client_crashes", Int o.Check.Fuzz.client_crashes);
      ("backend_restarts", Int o.Check.Fuzz.backend_restarts);
      ("mirror_crashes", Int o.Check.Fuzz.mirror_crashes);
      ("promotions", Int o.Check.Fuzz.promotions);
      ("fault_drop", Float o.Check.Fuzz.fault_drop);
      ("grey_periods", Int o.Check.Fuzz.grey_periods);
      ("verb_timeouts", Int o.Check.Fuzz.verb_timeouts);
      ("fault_retries", Int o.Check.Fuzz.fault_retries);
      ("reconnects", Int o.Check.Fuzz.reconnects);
      ("failures", List (List.map (fun f -> String f) o.Check.Fuzz.failures));
    ]

let check_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the sweep and fuzz outcomes (census histograms, failures with one-line \
           reproducers) to $(docv) as an asymnvm-check/1 JSON document.")

(* [base] narrowed to the values [ok] accepts, so an out-of-range flag is
   a usage error before any work starts. *)
let checked base ~what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let count = checked Arg.int ~what:"must be >= 0" (fun n -> n >= 0)
let positive_int = checked Arg.int ~what:"must be >= 1" (fun n -> n >= 1)
(* A verb lost with probability 1 never gets through: the sweep and the
   fuzzer reject it, so the converter does too. *)
let probability = checked Arg.float ~what:"must be in [0, 1)" (fun p -> p >= 0. && p < 1.)

let check_cmd =
  let run structure ops seed stride no_tear point tear_point fuzz fuzz_clients fault_drop json =
    let subjects =
      if structure = "all" then Check.Subject.all
      else
        match Check.Subject.find structure with
        | Some s -> [ s ]
        | None ->
            Fmt.epr "asymnvm: unknown structure %S (try one of: all %s)@." structure
              (String.concat " " Check.Subject.names);
            exit 1
    in
    let failed = ref false in
    let sweeps = ref [] and fuzzes = ref [] and points = ref [] in
    (match point with
    | Some point ->
        (* Reproducer mode: one schedule, one armed crash point. *)
        List.iter
          (fun s ->
            match
              Check.Explorer.run_point ~drop:fault_drop s ~ops ~seed ~point ~tear:tear_point
            with
            | None ->
                Fmt.pr "%-10s point %d%s: OK@." s.Check.Subject.name point
                  (if tear_point then " (torn)" else "");
                points :=
                  Obs.Json.Obj
                    [
                      ("structure", Obs.Json.String s.Check.Subject.name);
                      ("point", Obs.Json.Int point);
                      ("torn", Obs.Json.Bool tear_point);
                      ("pass", Obs.Json.Bool true);
                    ]
                  :: !points
            | Some f ->
                failed := true;
                Fmt.pr "%-10s point %d (%s%s, %d ops completed): %s@." s.Check.Subject.name
                  f.Check.Explorer.point f.Check.Explorer.site
                  (match f.Check.Explorer.torn with
                  | Some k -> Printf.sprintf ", torn keep=%d" k
                  | None -> "")
                  f.Check.Explorer.completed f.Check.Explorer.detail;
                points :=
                  Obs.Json.Obj
                    [
                      ("structure", Obs.Json.String s.Check.Subject.name);
                      ("point", Obs.Json.Int point);
                      ("torn", Obs.Json.Bool tear_point);
                      ("pass", Obs.Json.Bool false);
                      ("detail", Obs.Json.String f.Check.Explorer.detail);
                    ]
                  :: !points)
          subjects
    | None ->
        List.iter
          (fun s ->
            let o = Check.Explorer.sweep ~stride ~tear:(not no_tear) ~drop:fault_drop s ~ops ~seed in
            Fmt.pr "%a@." Check.Explorer.pp_outcome o;
            List.iter
              (fun (site, n) -> Fmt.pr "    %6d  %s@." n site)
              (List.sort (fun (_, a) (_, b) -> compare b a) o.Check.Explorer.sites);
            sweeps := sweep_json o :: !sweeps;
            if o.Check.Explorer.failures <> [] then failed := true)
          subjects;
        match fuzz with
        | 0 -> ()
        | steps ->
            List.iter
              (fun s ->
                let o = Check.Fuzz.run ~clients:fuzz_clients ~drop:fault_drop s ~steps ~seed in
                Fmt.pr "%a@." Check.Fuzz.pp_outcome o;
                fuzzes := fuzz_json o :: !fuzzes;
                if o.Check.Fuzz.failures <> [] then failed := true)
              subjects);
    (match json with
    | None -> ()
    | Some path ->
        let doc =
          Obs.Json.Obj
            [
              ("schema", Obs.Json.String check_schema);
              ("pass", Obs.Json.Bool (not !failed));
              ("sweeps", Obs.Json.List (List.rev !sweeps));
              ("points", Obs.Json.List (List.rev !points));
              ("fuzz", Obs.Json.List (List.rev !fuzzes));
            ]
        in
        (try
           let oc = open_out path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () -> output_string oc (Obs.Json.to_string doc));
           Fmt.pr "wrote %s@." path
         with Sys_error msg ->
           Fmt.epr "asymnvm: cannot write %s: %s@." path msg;
           exit 2));
    if !failed then exit 1
  in
  let structure =
    Arg.(
      value & opt string "all"
      & info [ "structure" ] ~docv:"NAME"
          ~doc:"Structure to sweep ($(b,all) or one of the registered names).")
  in
  let ops =
    Arg.(value & opt count 50 & info [ "ops" ] ~docv:"N" ~doc:"Operations in the schedule.")
  in
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule generator seed.")
  in
  let stride =
    Arg.(
      value & opt positive_int 1
      & info [ "stride" ] ~docv:"K" ~doc:"Sample every $(docv)-th crash point (1 = exhaustive).")
  in
  let no_tear =
    Arg.(value & flag & info [ "no-tear" ] ~doc:"Skip the torn-write variant of each point.")
  in
  let point =
    Arg.(
      value & opt (some count) None
      & info [ "point" ] ~docv:"N"
          ~doc:"Re-run a single crash point (reproducer mode; skips the sweep).")
  in
  let tear_point =
    Arg.(
      value & flag
      & info [ "tear-point" ] ~doc:"With $(b,--point), also tear the write at that point.")
  in
  let fuzz =
    Arg.(
      value & opt count 0
      & info [ "fuzz" ] ~docv:"STEPS"
          ~doc:
            "After the sweep, run the multi-client fault fuzzer for $(docv) random steps \
             (0 = off).")
  in
  let fuzz_clients =
    Arg.(
      value & opt positive_int 2
      & info [ "fuzz-clients" ] ~docv:"N" ~doc:"Fuzzer front-end count.")
  in
  let fault_drop =
    Arg.(
      value & opt probability 0.
      & info [ "fault-drop" ] ~docv:"RATE"
          ~doc:
            "Run the sweep and fuzzer under the transient-fault model: each verb is lost with \
             probability $(docv) (and the fuzzer also arms grey periods of heavy loss). The loss \
             schedule is derived from $(b,--seed), so reproducers stay one-line. 0 = off.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustive crash-point sweep: re-run a deterministic schedule once per NVM-mutating \
          boundary, crash there, recover, and validate against a pure reference model.")
    Term.(
      const run $ structure $ ops $ seed $ stride $ no_tear $ point $ tear_point $ fuzz
      $ fuzz_clients $ fault_drop $ check_json_arg)

(* -- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let run n out =
    Obs.set_enabled true;
    Obs.reset ();
    Obs_report.reset_phases ();
    let bk = Backend.create ~name:"backend" ~capacity:(64 * 1024 * 1024) lat in
    let clock = Clock.create ~name:"fe" () in
    let fe = Client.connect ~name:"fe" (Client.rcb ()) bk ~clock in
    let t = Bpt.attach fe ~name:"trace" in
    let rng = Asym_util.Rng.create ~seed:1L in
    let key () = Int64.of_int (Asym_util.Rng.int rng (4 * n)) in
    Obs_report.phase "insert" (fun () ->
        for _ = 1 to n do
          let k = key () in
          Bpt.put t ~key:k ~value:(Bytes.of_string (Int64.to_string k))
        done;
        Client.flush fe);
    Obs_report.phase "lookup" (fun () ->
        for _ = 1 to n do
          ignore (Bpt.find t ~key:(key ()))
        done);
    Obs_report.phase "crash+recover" (fun () ->
        Client.crash fe;
        ignore (Client.recover fe));
    (try Obs.Export_chrome.write_file out
     with Sys_error msg ->
       Fmt.epr "asymnvm: cannot write trace: %s@." msg;
       exit 1);
    (* Each phase resets the registry after its snapshot, so the phase
       table is this run's counter view. *)
    Asym_harness.Report.print (Obs_report.phases_report ());
    Asym_harness.Report.print (Obs_report.span_summary ());
    Fmt.pr "@.trace: %d events (%d dropped) over %a of virtual time written to %s@."
      (List.length (Obs.Span.events ()))
      (Obs.Span.dropped ()) Simtime.pp (Clock.now clock) out;
    Obs.set_enabled false
  in
  let n =
    Arg.(value & opt int 2_000 & info [ "ops" ] ~docv:"N" ~doc:"Operations per phase")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a three-phase workload (insert/lookup/recover) with tracing on")
    Term.(const run $ n $ out)

(* -- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let run structure config preload ops =
    let kind =
      match Asym_structs.Catalog.of_name structure with
      | Some k -> k
      | None ->
          Fmt.epr "asymnvm: unknown structure %S (one of: %s)@." structure
            (String.concat " " (List.map Runner.ds_name Runner.all_ds));
          exit 1
    in
    let cfg =
      match String.lowercase_ascii config with
      | "naive" -> Client.naive ()
      | "r" -> Client.r ()
      | "rc" -> Client.rc ()
      | "rcb" -> Client.rcb ()
      | other ->
          Fmt.epr "asymnvm: unknown config %S (naive, r, rc or rcb)@." other;
          exit 1
    in
    (* The same drive `bench breakdown` uses: YCSB-A for key/value
       structures, pure pushes for the FIFO family. *)
    let put_ratio = if Runner.is_fifo kind then 1.0 else 0.5 in
    let cell =
      Breakdown.run_cell ~put_ratio
        ~dist:(Asym_workload.Ycsb.Zipfian 0.99)
        ~rig:(Runner.make_rig lat) ~cfg ~preload ~ops kind
    in
    Asym_harness.Report.print (Breakdown.table [ cell ]);
    Asym_harness.Report.print (Breakdown.resource_table [ cell ])
  in
  let structure =
    Arg.(
      value & opt string "bpt"
      & info [ "structure" ] ~docv:"NAME" ~doc:"Structure to profile (e.g. bpt, mv-bpt).")
  in
  let config =
    Arg.(
      value & opt string "rcb"
      & info [ "config" ] ~docv:"CFG"
          ~doc:"Optimization stack: $(b,naive), $(b,r), $(b,rc) or $(b,rcb).")
  in
  let preload =
    Arg.(value & opt int 4000 & info [ "preload" ] ~docv:"N" ~doc:"Items loaded before measuring.")
  in
  let ops =
    Arg.(value & opt int 4000 & info [ "ops" ] ~docv:"N" ~doc:"Measured operations.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Latency-attribution profile of one structure/config cell: where each virtual \
          nanosecond went, by cause and by shared resource.")
    Term.(const run $ structure $ config $ preload $ ops)

(* -- bench-diff ------------------------------------------------------------- *)

let bench_diff_cmd =
  let run old_path new_path tolerance =
    let load path =
      try Bench_json.of_file path
      with
      | Sys_error msg ->
          Fmt.epr "asymnvm: cannot read %s: %s@." path msg;
          exit 2
      | Obs.Json.Parse_error msg ->
          Fmt.epr "asymnvm: %s: malformed JSON: %s@." path msg;
          exit 2
    in
    let old_doc = load old_path in
    let new_doc = load new_path in
    match Bench_json.diff ~tolerance ~old_doc ~new_doc () with
    | [] ->
        Fmt.pr "bench-diff: OK — %s and %s agree (tolerance %.0f%%)@." old_path new_path
          (100. *. tolerance)
    | failures ->
        List.iter (fun f -> Fmt.pr "bench-diff: %s@." f) failures;
        Fmt.pr "bench-diff: %d difference(s) between %s and %s@." (List.length failures)
          old_path new_path;
        exit 1
  in
  let old_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"Reference document.")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"Candidate document.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.02
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:"Relative tolerance for numeric cells (default 0.02 = 2%).")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two asymnvm-bench/1 documents (from bench/main.exe --json) cell by cell; \
          exit non-zero when cells drift beyond tolerance or shape checks flip.")
    Term.(const run $ old_path $ new_path $ tolerance)

let () =
  let info = Cmd.info "asymnvm" ~doc:"AsymNVM framework utility" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ layout_cmd; demo_cmd; drill_cmd; check_cmd; trace_cmd; profile_cmd; bench_diff_cmd ]))
