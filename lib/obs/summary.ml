type span_row = {
  sname : string;
  count : int;
  total_ns : int;
  mean_ns : float;
  max_ns : int;
}

let take n xs = List.filteri (fun i _ -> i < n) xs

let spans ?(top = 15) () =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (ev : Span.event) ->
      match ev.Span.kind with
      | Span.Instant -> ()
      | Span.Complete dur ->
          let count, total, mx =
            match Hashtbl.find_opt acc ev.Span.name with
            | Some v -> v
            | None -> (0, 0, 0)
          in
          Hashtbl.replace acc ev.Span.name (count + 1, total + dur, max mx dur))
    (Span.events ());
  Hashtbl.fold
    (fun sname (count, total_ns, max_ns) rows ->
      { sname; count; total_ns; mean_ns = float_of_int total_ns /. float_of_int count; max_ns }
      :: rows)
    acc []
  |> List.sort (fun a b -> compare (b.total_ns, b.sname) (a.total_ns, a.sname))
  |> take top

type counter_row = { cname : string; value : int }

let render_name name labels =
  match labels with
  | [] -> name
  | ls ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      ^ "}"

let counters ?(top = 15) () =
  Registry.fold_counters
    (fun name labels value rows -> { cname = render_name name labels; value } :: rows)
    []
  |> List.sort (fun a b -> compare (b.value, b.cname) (a.value, a.cname))
  |> take top

let format_ns ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%.3fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Printf.sprintf "%.3fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.3fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns
