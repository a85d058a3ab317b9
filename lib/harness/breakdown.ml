(* Where the time goes: per-configuration latency attribution tables
   built from the cause sink the simulation charges on every clock
   advance, plus per-resource queue-wait/service splits from the
   timelines. Powers `bench breakdown` and `asymnvm profile`. *)

module Obs = Asym_obs
open Asym_sim

type cell = {
  kind : Runner.ds_kind;
  config : string;
  res : Runner.result;
  attr : (Obs.Attr.cause * int) list;  (** ns per cause over the measured window *)
  round_trips : int;  (** signaled verbs posted (each pays a full RTT) *)
  resources : (string * int * int) list;  (** resource, queue ns, service ns *)
}

let attr_ns cell cause = match List.assoc_opt cause cell.attr with Some v -> v | None -> 0
let attr_total cell = List.fold_left (fun acc (_, v) -> acc + v) 0 cell.attr

(* One Table-3-style cell with observability forced on; the measured
   window's counters (Runner wraps it in Obs_report.phase) are read back
   into the cell. *)
let run_cell ?put_ratio ?dist ~rig ~cfg ~preload ~ops kind =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      Obs_report.reset_phases ();
      Obs.reset ();
      let res = Runner.run_asym ?put_ratio ?dist ~rig ~cfg ~kind ~preload ~ops () in
      let snap =
        match List.rev (Obs_report.phase_snapshots ()) with
        | (_, snap) :: _ -> snap
        | [] -> []
      in
      let attr =
        List.filter_map
          (fun (labels, v) ->
            Option.bind (List.assoc_opt "cause" labels) Obs.Attr.of_name
            |> Option.map (fun c -> (c, v)))
          (Obs_report.counter_series "attr.ns" snap)
      in
      let round_trips =
        List.fold_left
          (fun acc (labels, v) ->
            if List.assoc_opt "op" labels = Some "write_unsignaled" then acc else acc + v)
          0
          (Obs_report.counter_series "rdma.verbs" snap)
      in
      let resources =
        let get name =
          List.filter_map
            (fun (labels, v) ->
              Option.map (fun r -> (r, v)) (List.assoc_opt "resource" labels))
            (Obs_report.counter_series name snap)
        in
        let queue = get "timeline.queue_ns" and service = get "timeline.service_ns" in
        let names =
          List.sort_uniq compare (List.map fst queue @ List.map fst service)
        in
        List.map
          (fun r ->
            let v xs = match List.assoc_opt r xs with Some v -> v | None -> 0 in
            (r, v queue, v service))
          names
      in
      { kind; config = Asym_core.Client.config_name cfg; res; attr; round_trips; resources })

(* -- tables ------------------------------------------------------------------ *)

let per_op cell ns = float_of_int ns /. float_of_int (max 1 cell.res.Runner.ops)

let table cells =
  let causes =
    (* Only columns some cell actually charged. *)
    List.filter (fun c -> List.exists (fun cl -> attr_ns cl c > 0) cells) Obs.Attr.all
  in
  let t =
    Report.create
      ~title:"Breakdown: where the simulated time goes (us/op and share), YCSB-A mix"
      ~header:
        ([ "Benchmark"; "Config"; "KOPS"; "us/op"; "rt/op" ]
        @ List.map Obs.Attr.name causes)
      ~notes:
        [
          "rt/op counts signaled verbs (round trips paid in client latency); \
           unsignaled posts ride for free";
          "cause columns: share of the operation's virtual time, summing to 100%";
        ]
      ()
  in
  List.iter
    (fun cl ->
      let total = attr_total cl in
      Report.add_row t
        ([
           Runner.ds_name cl.kind;
           cl.config;
           Report.kops cl.res.Runner.kops;
           Printf.sprintf "%.2f" (per_op cl total /. 1e3);
           Printf.sprintf "%.1f" (per_op cl cl.round_trips);
         ]
        @ List.map
            (fun c -> Report.pct (float_of_int (attr_ns cl c) /. float_of_int (max 1 total)))
            causes))
    cells;
  (match cells with
  | cl :: _ ->
      let covered = attr_total cl and elapsed = cl.res.Runner.elapsed in
      Report.note t
        (Printf.sprintf "conservation (first cell): %d ns attributed of %d ns elapsed (%s)"
           covered elapsed
           (if covered = elapsed then "exact" else "MISMATCH"))
  | [] -> ());
  t

let resource_table cells =
  let t =
    Report.create ~title:"Breakdown: queue wait vs service per shared resource"
      ~header:[ "Benchmark"; "Config"; "Resource"; "queue us"; "service us"; "queue share" ]
      ~notes:
        [
          "queue = time requests sat waiting for the resource; service = time it worked. \
           A hot back-end NIC shows up here before it shows up in throughput.";
        ]
      ()
  in
  List.iter
    (fun cl ->
      List.iter
        (fun (r, q, s) ->
          Report.add_row t
            [
              Runner.ds_name cl.kind;
              cl.config;
              r;
              Printf.sprintf "%.1f" (float_of_int q /. 1e3);
              Printf.sprintf "%.1f" (float_of_int s /. 1e3);
              Report.pct (float_of_int q /. float_of_int (max 1 (q + s)));
            ])
        cl.resources)
    cells;
  t

(* The default `bench breakdown` cast: the structures whose Table 3
   movements EXPERIMENTS.md explains by hand today. *)
let default_cells ~preload ~ops =
  let lat = Latency.default in
  (* YCSB-A (50/50, zipf .99) for the key/value structures: the profile a
     structure serves in steady state, and the one EXPERIMENTS.md's drift
     discussion needs — cached reads are where the cache converts round
     trips into local time, writes are where the log batching does. FIFO
     structures keep the 100%-push drive (they have no read mix). *)
  let cell cfg kind =
    let put_ratio = if Runner.is_fifo kind then 1.0 else 0.5 in
    run_cell ~put_ratio ~dist:(Asym_workload.Ycsb.Zipfian 0.99)
      ~rig:(Runner.make_rig lat) ~cfg ~preload ~ops kind
  in
  let open Asym_core in
  [
    cell (Client.naive ()) Runner.Bpt;
    cell (Client.r ()) Runner.Bpt;
    cell (Client.rc ()) Runner.Bpt;
    cell (Client.rcb ()) Runner.Bpt;
    cell (Client.naive ()) Runner.Hash_table;
    cell (Client.rc ()) Runner.Hash_table;
    cell (Client.naive ()) Runner.Queue;
    cell (Runner.fifo_rcb ()) Runner.Queue;
    cell (Client.naive ()) Runner.Mv_bpt;
    cell (Client.rcb ()) Runner.Mv_bpt;
  ]
