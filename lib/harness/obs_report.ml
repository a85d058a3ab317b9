module Obs = Asym_obs

(* Both summary tables keep their 15 largest rows. *)
let top = 15

let take xs = List.filteri (fun i _ -> i < top) xs

let format_ns ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%.3fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Printf.sprintf "%.3fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.3fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

let span_summary () =
  let t =
    Report.create ~title:"Observability: top spans by total simulated time"
      ~header:[ "span"; "count"; "total"; "mean"; "max" ]
      ()
  in
  (* Complete spans grouped by name: count, total, max. *)
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (ev : Obs.Span.event) ->
      match ev.Obs.Span.kind with
      | Obs.Span.Instant -> ()
      | Obs.Span.Complete dur ->
          let name = ev.Obs.Span.name in
          let count, total, mx =
            match Hashtbl.find_opt acc name with Some v -> v | None -> (0, 0, 0)
          in
          Hashtbl.replace acc name (count + 1, total + dur, max mx dur))
    (Obs.Span.events ());
  Hashtbl.fold (fun name (count, total, mx) rows -> (name, count, total, mx) :: rows) acc []
  |> List.sort (fun (a, _, ta, _) (b, _, tb, _) -> compare (tb, b) (ta, a))
  |> take
  |> List.iter (fun (name, count, total, mx) ->
         let mean = float_of_int total /. float_of_int count in
         Report.add_row t
           [
             name;
             string_of_int count;
             format_ns total;
             format_ns (int_of_float mean);
             format_ns mx;
           ]);
  let dropped = Obs.Span.dropped () in
  if dropped > 0 then
    Report.note t
      (Printf.sprintf "span ring dropped %d event(s); raise Span.set_capacity for full traces"
         dropped);
  t

let render_name name labels =
  match labels with
  | [] -> name
  | ls -> name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let counter_summary () =
  let t =
    Report.create ~title:"Observability: top counters" ~header:[ "counter"; "value" ] ()
  in
  Obs.Registry.fold_counters (fun name labels v rows -> (render_name name labels, v) :: rows) []
  |> List.sort (fun (a, va) (b, vb) -> compare (vb, b) (va, a))
  |> take
  |> List.iter (fun (name, v) -> Report.add_row t [ name; string_of_int v ]);
  t

(* -- phases -------------------------------------------------------------- *)

type series = string * Obs.Registry.labels * int

let snapshots : (string * series list) list ref = ref []

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
        let snap =
          Obs.Registry.fold_counters (fun name labels v acc -> (name, labels, v) :: acc) []
          |> List.sort compare
        in
        snapshots := !snapshots @ [ (label, snap) ];
        Obs.Registry.reset ())
      f
  end

let phase_snapshots () = !snapshots
let reset_phases () = snapshots := []

let counter_series name snap =
  List.filter_map (fun (n, labels, v) -> if n = name then Some (labels, v) else None) snap

let counter_total name snap =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (counter_series name snap)

let phases_report () =
  let t =
    Report.create ~title:"Observability: per-phase snapshots"
      ~header:[ "phase"; "series"; "rdma verbs"; "wire bytes" ]
      ()
  in
  List.iter
    (fun (label, snap) ->
      Report.add_row t
        [
          label;
          string_of_int (List.length snap);
          string_of_int (counter_total "rdma.verbs" snap);
          string_of_int (counter_total "rdma.wire_bytes" snap);
        ])
    !snapshots;
  t
