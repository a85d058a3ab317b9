type kind = Queue | Stack | Hash_table | Skip_list | Bst | Bpt | Mv_bst | Mv_bpt

let all = [ Queue; Stack; Hash_table; Skip_list; Bst; Bpt; Mv_bst; Mv_bpt ]

(* (report label, module name) *)
let names = function
  | Queue -> ("Queue", "pqueue")
  | Stack -> ("Stack", "pstack")
  | Hash_table -> ("HashTable", "phash")
  | Skip_list -> ("SkipList", "pskiplist")
  | Bst -> ("BST", "pbst")
  | Bpt -> ("BPT", "pbptree")
  | Mv_bst -> ("MV-BST", "pmvbst")
  | Mv_bpt -> ("MV-BPT", "pmvbptree")

let label k = fst (names k)
let module_name k = snd (names k)

let of_name s =
  let canon s = String.lowercase_ascii (String.concat "" (String.split_on_char '-' s)) in
  let s = canon s in
  List.find_opt (fun k -> canon (label k) = s || canon (module_name k) = s) all

let is_fifo = function Queue | Stack -> true | _ -> false

type instance = {
  put : int64 -> bytes -> unit;
  get : int64 -> bytes option;
  del : int64 -> bool;
  push : bytes -> unit;
  pop : unit -> bytes option;
  vput : ((int64 * bytes) list -> unit) option;
  cleanup : unit -> unit;
  register : Registry.t -> unit;
  dump : unit -> (int64 * bytes) list;
}

let no_fifo _ = invalid_arg "Catalog: not a queue/stack instance"
let no_kv _ = invalid_arg "Catalog: not a key/value instance"

let fifo ~push ~pop ~cleanup ~register ~elements =
  {
    put = no_kv;
    get = no_kv;
    del = no_kv;
    push;
    pop;
    vput = None;
    cleanup;
    register;
    dump = (fun () -> List.mapi (fun i v -> (Int64.of_int i, v)) (elements ()));
  }

let kv ?vput ~put ~get ~del ~cleanup ~register ~bindings () =
  {
    put;
    get;
    del;
    push = no_fifo;
    pop = no_fifo;
    vput;
    cleanup;
    register;
    dump = (fun () -> List.sort (fun (a, _) (b, _) -> Int64.compare a b) (bindings ()));
  }

module Make (S : Asym_core.Store.S) = struct
  module Q = Pqueue.Make (S)
  module St = Pstack.Make (S)
  module H = Phash.Make (S)
  module K = Pskiplist.Make (S)
  module B = Pbst.Make (S)
  module P = Pbptree.Make (S)
  module Mb = Pmvbst.Make (S)
  module Mp = Pmvbptree.Make (S)

  let attach ~opts ?nbuckets ?rng kind s ~name =
    let flush () = S.flush s in
    let register (h : Asym_core.Types.handle) replay reg = Registry.register reg ~ds:h.id replay in
    match kind with
    | Queue ->
        let t = Q.attach ~opts s ~name in
        fifo ~push:(Q.enqueue t)
          ~pop:(fun () -> Q.dequeue t)
          ~cleanup:flush
          ~register:(register (Q.handle t) (Q.replay t))
          ~elements:(fun () -> Q.to_list t)
    | Stack ->
        let t = St.attach ~opts s ~name in
        fifo ~push:(St.push t)
          ~pop:(fun () -> St.pop t)
          ~cleanup:flush
          ~register:(register (St.handle t) (St.replay t))
          ~elements:(fun () -> St.to_list t)
    | Hash_table ->
        let t = H.attach ~opts ?nbuckets s ~name in
        kv
          ~put:(fun key value -> H.put t ~key ~value)
          ~get:(fun key -> H.get t ~key)
          ~del:(fun key -> H.delete t ~key)
          ~cleanup:flush
          ~register:(register (H.handle t) (H.replay t))
          ~bindings:(fun () ->
            let acc = ref [] in
            H.iter t (fun k v -> acc := (k, v) :: !acc);
            !acc)
          ()
    | Skip_list ->
        let t = K.attach ~opts ?rng s ~name in
        kv
          ~put:(fun key value -> K.put t ~key ~value)
          ~get:(fun key -> K.find t ~key)
          ~del:(fun key -> K.delete t ~key)
          ~cleanup:flush
          ~register:(register (K.handle t) (K.replay t))
          ~bindings:(fun () -> K.to_list t)
          ()
    | Bst ->
        let t = B.attach ~opts s ~name in
        kv ~vput:(B.insert_vector t)
          ~put:(fun key value -> B.put t ~key ~value)
          ~get:(fun key -> B.find t ~key)
          ~del:(fun key -> B.delete t ~key)
          ~cleanup:flush
          ~register:(register (B.handle t) (B.replay t))
          ~bindings:(fun () -> B.to_list t)
          ()
    | Bpt ->
        let t = P.attach ~opts s ~name in
        kv ~vput:(P.insert_vector t)
          ~put:(fun key value -> P.put t ~key ~value)
          ~get:(fun key -> P.find t ~key)
          ~del:(fun key -> P.delete t ~key)
          ~cleanup:flush
          ~register:(register (P.handle t) (P.replay t))
          ~bindings:(fun () -> P.to_list t)
          ()
    | Mv_bst ->
        let t = Mb.attach ~opts s ~name in
        kv
          ~put:(fun key value -> Mb.put t ~key ~value)
          ~get:(fun key -> Mb.find t ~key)
          ~del:(fun key -> Mb.delete t ~key)
          ~cleanup:(fun () ->
            flush ();
            Mb.gc_drain t)
          ~register:(register (Mb.handle t) (Mb.replay t))
          ~bindings:(fun () -> Mb.to_list t)
          ()
    | Mv_bpt ->
        let t = Mp.attach ~opts s ~name in
        kv
          ~put:(fun key value -> Mp.put t ~key ~value)
          ~get:(fun key -> Mp.find t ~key)
          ~del:(fun key -> Mp.delete t ~key)
          ~cleanup:(fun () ->
            flush ();
            Mp.gc_drain t)
          ~register:(register (Mp.handle t) (Mp.replay t))
          ~bindings:(fun () -> Mp.to_list t)
          ()
end
