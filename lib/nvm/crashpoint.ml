exception Crash_injected of int

type mode = Off | Census | Armed of int

let mode = ref Off
let counter = ref 0
let depth = ref 0
let context = ref "?"
let sites : (string, int) Hashtbl.t = Hashtbl.create 32
let fired_at : (int * string) option ref = ref None

let reset () =
  mode := Off;
  counter := 0;
  depth := 0;
  context := "?";
  fired_at := None;
  Hashtbl.reset sites

let set_census () = mode := Census
let arm n = mode := Armed n
let boundaries () = !counter

let site_counts () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fired () = !fired_at

let in_verb label f =
  if !mode = Off then f ()
  else begin
    incr depth;
    let prev = !context in
    context := label;
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        context := prev)
      f
  end

let hit ~site =
  if !mode <> Off && !depth > 0 then begin
    incr counter;
    let label = !context ^ "/" ^ site in
    match !mode with
    | Census ->
        Hashtbl.replace sites label
          (1 + Option.value ~default:0 (Hashtbl.find_opt sites label))
    | Armed n when !counter = n ->
        (* Disarm before raising: recovery and validation code that runs
           after the injected crash must see a quiescent hook. *)
        mode := Off;
        fired_at := Some (n, label);
        raise (Crash_injected n)
    | _ -> ()
  end
