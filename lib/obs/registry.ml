type labels = (string * string) list

(* Canonical series key: name plus sorted labels. *)
type key = { kname : string; klabels : labels }

(* The process-wide registry every instrumentation site records into. *)
let counters : (key, int ref) Hashtbl.t = Hashtbl.create 64

let key name labels =
  { kname = name; klabels = List.sort compare labels }

let add ?(labels = []) name n =
  if Gate.enabled () then begin
    if n < 0 then invalid_arg "Obs.Registry.add: counters are monotonic";
    let k = key name labels in
    match Hashtbl.find_opt counters k with
    | Some c -> c := !c + n
    | None -> Hashtbl.replace counters k (ref n)
  end

let inc ?labels name = add ?labels name 1

let counter_value ?(labels = []) name =
  match Hashtbl.find_opt counters (key name labels) with Some c -> !c | None -> 0

let fold_counters f acc =
  Hashtbl.fold (fun k c acc -> f k.kname k.klabels !c acc) counters acc

let reset () = Hashtbl.reset counters
