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
let sites : (string, int) Hashtbl.t = Hashtbl.create 32
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
  Hashtbl.reset sites

let set_census () = mode := Census

let arm ?torn n =
  mode := Armed n;
  Option.iter (fun f -> tear := At (n, f)) torn

let tear_next ~keep = tear := Next keep
let boundaries () = !counter

let site_counts () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fired () = !fired_at
let torn_keep () = !landed

(* An atomic verb cannot tear: the NIC applies RDMA CAS/fetch-add as one
   8-byte unit. Everything else (signaled and unsignaled writes) can. *)
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
