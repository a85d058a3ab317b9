exception Crash_injected of int

type mode = Off | Census | Armed of int

(* A tear is decided before its write lands: the next plain mutation's
   ([Next]), or armed boundary [n]'s when its verb can tear ([At]). *)
type tear = Whole | Next of int | At of int * (int -> int)

let mode = ref Off
let tear = ref Whole
let counter = ref 0
let depth = ref 0
let context = ref "?"
(* Census: each boundary's site label, newest first. *)
let labels : string list ref = ref []
let fired_at : (int * string) option ref = ref None
let landed : int option ref = ref None

let reset () =
  mode := Off;
  tear := Whole;
  counter := 0;
  depth := 0;
  context := "?";
  fired_at := None;
  landed := None;
  labels := []

let set_census () = mode := Census

let arm ?torn n =
  mode := Armed n;
  Option.iter (fun f -> tear := At (n, f)) torn

let tear_next ~keep = tear := Next keep
let sites () = Array.of_list (List.rev !labels)

let site_counts () =
  List.map
    (fun l -> (l, List.length (List.filter (String.equal l) !labels)))
    (List.sort_uniq compare !labels)

let fired () = !fired_at
let torn_keep () = !landed

(* An atomic verb cannot tear: the NIC applies RDMA CAS/fetch-add as one
   8-byte unit. Everything else (signaled and unsignaled writes) can. A
   site label starts with its verb, so this reads either. *)
let tearable verb = String.starts_with ~prefix:"rdma.write" verb

let land_torn ~len keep =
  let keep = Int.max 0 (Int.min keep len) in
  tear := Whole;
  landed := Some keep;
  keep

let landing ~len =
  match !tear with
  | Whole -> len
  | Next keep -> land_torn ~len keep
  | At (n, f) ->
      (* [hit] counts this mutation as boundary [!counter + 1]. *)
      if !depth > 0 && !counter + 1 = n && tearable !context then land_torn ~len (f len)
      else len

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
    | Census -> labels := label :: !labels
    | Armed n when !counter = n ->
        (* Disarm before raising: recovery and validation code that runs
           after the injected crash must see a quiescent hook. *)
        mode := Off;
        fired_at := Some (n, label);
        raise (Crash_injected n)
    | _ -> ()
  end
