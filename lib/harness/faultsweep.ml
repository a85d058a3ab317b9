(* `bench faultsweep`: throughput and retry behaviour vs per-verb drop
   rate, under the lib/rdma transient-fault model.

   Each cell writes a disjoint key range through a faulty connection and
   then reads every key back (cache invalidated) as a consistency check:
   because log appends land at absolute ring offsets and replay is
   opnum-idempotent, a retried verb must never lose or duplicate an
   update — any read-back mismatch is a retry-layer bug, not an accepted
   outcome. Throughput may only degrade as drop rate rises; retries must
   rise from zero. All loss schedules are seeded, so a rerun reproduces
   the same retry counts exactly. *)

open Asym_sim
open Asym_core

type cell = {
  kind : Runner.ds_kind;
  config : string;
  drop : float;
  kops : float;
  retries : int;
  reconnects : int;
  timeouts : int;
  delays : int;
  bad_reads : int;  (** read-back mismatches — any nonzero is a failure *)
}

let drops = [ 0.0; 0.01; 0.02; 0.05; 0.1 ]
let value_size = 64

(* Keys the sweep writes live above the preload range, so the read-back
   can enumerate exactly what this cell is responsible for. *)
let run_cell ~preload ~ops ~drop ~cfg kind =
  let rig = Runner.make_rig Latency.default in
  let loader = Runner.fresh_client ~name:"fault-loader" rig (Client.rcb ()) in
  let linst = Runner.client_instance kind loader ~name:"faultsweep" in
  Runner.preload_instance linst ~fifo:(Runner.is_fifo kind) ~n:preload ~value_size;
  linst.Runner.cleanup ();
  Client.close loader;
  let fe = Runner.fresh_client ~name:"fault-fe" rig cfg in
  if drop > 0. then
    Asym_rdma.Verbs.set_fault (Client.connection fe)
      (Some
         (Asym_rdma.Verbs.Fault.make ~drop_p:drop ~delay_p:(drop /. 2.) ~delay_ns:3_000
            ~seed:(Int64.logxor 0xFA17L (Int64.of_int (int_of_float (drop *. 1e6))))
            ()));
  let inst = Runner.client_instance kind fe ~name:"faultsweep" in
  let base = Int64.of_int (4 * preload) in
  let kops, _, _ =
    Runner.measure ~clock:(Client.clock fe) ~ops (fun i ->
        let key = Int64.add base (Int64.of_int i) in
        inst.Runner.put key (Runner.value_of ~size:value_size key))
  in
  inst.Runner.cleanup ();
  (* The fence waits out queued back-end replay: the read-back below goes
     to the media image, not the client's write overlay. *)
  Client.persist_fence fe;
  Client.invalidate_cache fe;
  let bad_reads = ref 0 in
  for i = 0 to ops - 1 do
    let key = Int64.add base (Int64.of_int i) in
    match inst.Runner.get key with
    | Some v when v = Runner.value_of ~size:value_size key -> ()
    | _ -> incr bad_reads
  done;
  {
    kind;
    config = Client.config_name cfg;
    drop;
    kops;
    retries = Client.fault_retries fe;
    reconnects = Client.reconnects fe;
    timeouts = Asym_rdma.Verbs.verb_timeouts (Client.connection fe);
    delays = Asym_rdma.Verbs.injected_delays (Client.connection fe);
    bad_reads = !bad_reads;
  }

let default_cells ?(preload = 1000) ?(ops = 2000) () =
  List.concat_map
    (fun cfg ->
      List.map (fun drop -> run_cell ~preload ~ops ~drop ~cfg Runner.Bpt) drops)
    [ Client.rcb (); Client.naive () ]

(* -- table ------------------------------------------------------------------- *)

let table cells =
  let t =
    Report.create
      ~title:"Fault sweep: B+-tree put throughput vs per-verb drop rate (seeded loss schedule)"
      ~header:
        [ "Config"; "drop"; "KOPS"; "timeouts"; "delays"; "retries"; "reconnects"; "bad reads" ]
      ~notes:
        [
          "every verb lost with p = drop (half also delayed when delivered); retries pay \
           capped exponential backoff, all charged to the fault_retry cause";
          "bad reads: post-sweep read-back mismatches after a cache invalidate — must be 0 \
           (retried appends are opnum-idempotent, so loss never loses or doubles an update)";
        ]
      ()
  in
  List.iter
    (fun c ->
      Report.add_row t
        [
          c.config;
          Printf.sprintf "%.2f" c.drop;
          Report.kops c.kops;
          string_of_int c.timeouts;
          string_of_int c.delays;
          string_of_int c.retries;
          string_of_int c.reconnects;
          string_of_int c.bad_reads;
        ])
    cells;
  t

(* -- verdicts ---------------------------------------------------------------- *)

let checks cells =
  let check cname pass detail = { Bench_json.experiment = "faultsweep"; cname; pass; detail } in
  let consistent =
    match List.find_opt (fun c -> c.bad_reads > 0) cells with
    | None -> check "zero_bad_reads" true "every written key read back intact at every drop rate"
    | Some c ->
        check "zero_bad_reads" false
          (Printf.sprintf "%s drop=%.2f: %d read-back mismatches" c.config c.drop c.bad_reads)
  in
  let configs = List.sort_uniq compare (List.map (fun c -> c.config) cells) in
  let per_config f =
    List.for_all
      (fun cfg ->
        f (List.sort (fun a b -> compare a.drop b.drop)
             (List.filter (fun c -> c.config = cfg) cells)))
      configs
  in
  let monotone =
    (* Throughput may only degrade as loss rises; 5% slack absorbs the
       jitter the loss schedule itself injects into batching decisions. *)
    let ok =
      per_config (fun cs ->
          let rec chain = function
            | a :: (b :: _ as rest) -> b.kops <= a.kops *. 1.05 && chain rest
            | _ -> true
          in
          chain cs)
    in
    check "throughput_degrades_monotonically" ok
      (String.concat "; "
         (List.map
            (fun c -> Printf.sprintf "%s@%.2f=%.1f" c.config c.drop c.kops)
            cells))
  in
  let retries_grow =
    let ok =
      per_config (fun cs ->
          match (cs, List.rev cs) with
          | zero :: _, top :: _ -> zero.retries = 0 && top.retries > 0
          | _ -> false)
    in
    check "retries_track_drop_rate" ok
      "faults off retries nothing; the top drop rate must retry (seeded, so counts reproduce)"
  in
  [ consistent; monotone; retries_grow ]
