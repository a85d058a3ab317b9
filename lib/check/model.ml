type op =
  | Put of int64 * bytes
  | Delete of int64
  | Push of bytes
  | Pop

let pp_op fmt = function
  | Put (k, v) -> Fmt.pf fmt "put %Ld %S" k (Bytes.to_string v)
  | Delete k -> Fmt.pf fmt "delete %Ld" k
  | Push v -> Fmt.pf fmt "push %S" (Bytes.to_string v)
  | Pop -> Fmt.pf fmt "pop"

type t =
  | Map of (int64 * bytes) list  (* sorted by key, unique keys *)
  | Lifo of bytes list  (* top first *)
  | Fifo of bytes list  (* head first *)

let empty_map = Map []
let empty_lifo = Lifo []
let empty_fifo = Fifo []

let rec put_sorted k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | (k', _) :: _ as l when Int64.compare k k' < 0 -> (k, v) :: l
  | b :: rest -> b :: put_sorted k v rest

let apply t op =
  match (t, op) with
  | Map l, Put (k, v) -> Map (put_sorted k v l)
  | Map l, Delete k -> Map (List.filter (fun (k', _) -> k' <> k) l)
  | Lifo l, Push v -> Lifo (v :: l)
  | Lifo l, Pop -> Lifo (match l with [] -> [] | _ :: tl -> tl)
  | Fifo l, Push v -> Fifo (l @ [ v ])
  | Fifo l, Pop -> Fifo (match l with [] -> [] | _ :: tl -> tl)
  | _ -> Fmt.invalid_arg "Model.apply: %a on a %s model" pp_op op
           (match t with Map _ -> "map" | _ -> "sequence")

let dump = function
  | Map l -> l
  | Lifo l | Fifo l -> List.mapi (fun i v -> (Int64.of_int i, v)) l

(* The hot key range is small on purpose: collisions exercise update and
   delete paths, not just inserts. *)
let hot_keys = 24

let random_op rng ~kind ~i =
  match kind with
  | `Map ->
      let key = Int64.of_int (Asym_util.Rng.int rng hot_keys) in
      if Asym_util.Rng.int rng 4 = 0 then Delete key
      else Put (key, Bytes.of_string (Printf.sprintf "v%03d:%012Lx:end" i key))
  | `Seq ->
      if Asym_util.Rng.int rng 10 < 3 then Pop
      else Push (Bytes.of_string (Printf.sprintf "e%03d:payload-tail" i))

let generate ~kind ~ops ~seed =
  let rng = Asym_util.Rng.create ~seed in
  List.init ops (fun i -> random_op rng ~kind ~i)
