module Obs = Asym_obs

let top = 15

let span_summary () =
  let t =
    Report.create ~title:"Observability: top spans by total simulated time"
      ~header:[ "span"; "count"; "total"; "mean"; "max" ]
      ()
  in
  List.iter
    (fun (r : Obs.Summary.span_row) ->
      Report.add_row t
        [
          r.Obs.Summary.sname;
          string_of_int r.Obs.Summary.count;
          Obs.Summary.format_ns r.Obs.Summary.total_ns;
          Obs.Summary.format_ns (int_of_float r.Obs.Summary.mean_ns);
          Obs.Summary.format_ns r.Obs.Summary.max_ns;
        ])
    (Obs.Summary.spans ~top ());
  let dropped = Obs.Span.dropped () in
  if dropped > 0 then
    Report.note t
      (Printf.sprintf "span ring dropped %d event(s); raise Span.set_capacity for full traces"
         dropped);
  t

let counter_summary () =
  let t =
    Report.create ~title:"Observability: top counters" ~header:[ "counter"; "value" ] ()
  in
  List.iter
    (fun (r : Obs.Summary.counter_row) ->
      Report.add_row t [ r.Obs.Summary.cname; string_of_int r.Obs.Summary.value ])
    (Obs.Summary.counters ~top ());
  t

(* -- phases -------------------------------------------------------------- *)

let snapshots : (string * Obs.Json.t) list ref = ref []

let phase label f =
  if not (Obs.enabled ()) then f ()
  else begin
    (* Start from a clean registry AND attribution sink, so the snapshot
       is exactly this phase's charges; the sink is folded into
       [attr.ns{cause=...}] counters before snapshotting. *)
    Obs.Registry.reset ();
    Obs.Attr.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Attr.flush_to_registry ();
        snapshots := !snapshots @ [ (label, Obs.Registry.to_json ()) ];
        Obs.Registry.reset ())
      f
  end

let phase_snapshots () = !snapshots
let reset_phases () = snapshots := []

(* Pull one counter total back out of a snapshot document. *)
let counter_total name json =
  match Obs.Json.member "counters" json with
  | Some (Obs.Json.List series) ->
      List.fold_left
        (fun acc s ->
          match (Obs.Json.member "name" s, Obs.Json.member "value" s) with
          | Some (Obs.Json.String n), Some v when n = name -> acc + Obs.Json.to_int v
          | _ -> acc)
        0 series
  | _ -> 0

(* All (labels, value) points of one counter in a snapshot document. *)
let counter_series name json =
  match Obs.Json.member "counters" json with
  | Some (Obs.Json.List series) ->
      List.filter_map
        (fun s ->
          match (Obs.Json.member "name" s, Obs.Json.member "value" s) with
          | Some (Obs.Json.String n), Some v when n = name ->
              let labels =
                match Obs.Json.member "labels" s with
                | Some (Obs.Json.Obj kvs) ->
                    List.map (fun (k, j) -> (k, Obs.Json.to_str j)) kvs
                | _ -> []
              in
              Some (labels, Obs.Json.to_int v)
          | _ -> None)
        series
  | _ -> []

let count_series json =
  [ "counters"; "histograms" ]
  |> List.fold_left
       (fun acc k ->
         match Obs.Json.member k json with
         | Some (Obs.Json.List xs) -> acc + List.length xs
         | _ -> acc)
       0

let phases_report () =
  let t =
    Report.create ~title:"Observability: per-phase snapshots"
      ~header:[ "phase"; "series"; "rdma verbs"; "wire bytes" ]
      ()
  in
  List.iter
    (fun (label, json) ->
      Report.add_row t
        [
          label;
          string_of_int (count_series json);
          string_of_int (counter_total "rdma.verbs" json);
          string_of_int (counter_total "rdma.wire_bytes" json);
        ])
    !snapshots;
  t
