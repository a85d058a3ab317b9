module Stats = Asym_util.Stats

type labels = (string * string) list

(* Canonical series key: name plus sorted labels. *)
type key = { kname : string; klabels : labels }

type metric = Counter of int ref | Histogram of Stats.Histogram.t

(* The process-wide registry every instrumentation site records into. *)
let metrics : (key, metric) Hashtbl.t = Hashtbl.create 64

let key name labels =
  { kname = name; klabels = List.sort compare labels }

(* 2^0 .. 2^39: nanosecond latencies from 1 ns to ~9 simulated minutes. *)
let latency_buckets = Array.init 40 (fun i -> Float.of_int (1 lsl i))

let kind_err name got want =
  invalid_arg (Printf.sprintf "Obs.Registry: %s is a %s, used as a %s" name got want)

let find_or_add k make =
  match Hashtbl.find_opt metrics k with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace metrics k m;
      m

let add ?(labels = []) name n =
  if Gate.enabled () then begin
    if n < 0 then invalid_arg "Obs.Registry.add: counters are monotonic";
    match find_or_add (key name labels) (fun () -> Counter (ref 0)) with
    | Counter c -> c := !c + n
    | Histogram _ -> kind_err name "histogram" "counter"
  end

let inc ?labels name = add ?labels name 1

let observe ?(labels = []) name v =
  if Gate.enabled () then begin
    match
      find_or_add (key name labels) (fun () ->
          Histogram (Stats.Histogram.create ~buckets:latency_buckets))
    with
    | Histogram h -> Stats.Histogram.add h v
    | Counter _ -> kind_err name "counter" "histogram"
  end

let counter_value ?(labels = []) name =
  match Hashtbl.find_opt metrics (key name labels) with
  | Some (Counter c) -> !c
  | _ -> 0

let histogram ?(labels = []) name =
  match Hashtbl.find_opt metrics (key name labels) with
  | Some (Histogram h) -> Some h
  | _ -> None

let fold_counters f acc =
  Hashtbl.fold
    (fun k m acc -> match m with Counter c -> f k.kname k.klabels !c acc | _ -> acc)
    metrics acc

let reset () = Hashtbl.reset metrics

(* -- snapshot ----------------------------------------------------------- *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let sorted_series want =
  Hashtbl.fold
    (fun k m acc -> match want k m with Some j -> (k, j) :: acc | None -> acc)
    metrics []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let to_json () =
  let series k extra =
    Json.Obj ([ ("name", Json.String k.kname); ("labels", labels_json k.klabels) ] @ extra)
  in
  let counters =
    sorted_series (fun k -> function
      | Counter c -> Some (series k [ ("value", Json.Int !c) ])
      | _ -> None)
  in
  let histograms =
    sorted_series (fun k -> function
      | Histogram h ->
          let buckets =
            Stats.Histogram.counts h |> Array.to_list
            |> List.filter (fun (_, c) -> c > 0)
            |> List.map (fun (ub, c) -> Json.List [ Json.Float ub; Json.Int c ])
          in
          let pct p =
            if Stats.Histogram.total h = 0 then Json.Null
            else Json.Float (Stats.Histogram.percentile h p)
          in
          Some
            (series k
               [
                 ("total", Json.Int (Stats.Histogram.total h));
                 ("buckets", Json.List buckets);
                 ("p50", pct 50.0);
                 ("p99", pct 99.0);
               ])
      | _ -> None)
  in
  Json.Obj [ ("counters", Json.List counters); ("histograms", Json.List histograms) ]
