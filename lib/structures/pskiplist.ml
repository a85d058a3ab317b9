(** Persistent skiplist (§8.4, and the paper's running example, Figure 2).

    Node layout: [[key: u64][level: u32][pad: u32][valptr: u64][next_0 ..
    next_{level-1}]] with out-of-line value blobs. A head sentinel with
    the maximum level anchors the lists. Writers first populate the new
    node's successor pointers, then swing the predecessors bottom-up, so
    readers always observe a consistent list. Taller nodes are visited
    exponentially more often, so reads performed while traversing high
    levels go through the cache and low levels bypass it. *)

open Asym_core

let op_put = 1
let op_delete = 2
let max_level = 16

(* Reads at this level and above go through the cache. *)
let hot_level = 1

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module F = Ds_intf.Frame (S)

  type t = { s : S.t; h : Types.handle; head : Types.addr; rng : Asym_util.Rng.t; fr : F.t }

  let off_key = 0
  let off_level = 8
  let off_valptr = 16
  let next_off i = 24 + (8 * i)
  let node_size level = 24 + (8 * level)

  let write_new_node t ~ds ~key ~valptr ~level ~nexts =
    let addr = S.malloc t.s (node_size level) in
    let b = Bytes.create (node_size level) in
    Bytes.set_int64_le b off_key key;
    Bytes.set_int32_le b off_level (Int32.of_int level);
    Bytes.set_int32_le b 12 0l;
    Bytes.set_int64_le b off_valptr (Int64.of_int valptr);
    Array.iteri (fun i nxt -> Bytes.set_int64_le b (next_off i) nxt) nexts;
    S.write t.s ~ds ~addr b;
    addr

  let attach ?(opts = Ds_intf.locked_options) ?(rng = Asym_util.Rng.create ~seed:4242L) s
      ~name =
    let fr = F.attach ~opts s ~name in
    let h = fr.F.h in
    let head = S.read_u64 ~hint:`Hot s h.Types.root in
    if head = 0L then begin
      let t = { s; h; head = 0; rng; fr } in
      let head =
        write_new_node t ~ds:h.Types.id ~key:Int64.min_int ~valptr:0 ~level:max_level
          ~nexts:(Array.make max_level 0L)
      in
      S.write_u64 s ~ds:h.Types.id h.Types.root (Int64.of_int head);
      S.flush s;
      { t with head }
    end
    else { s; h; head = Int64.to_int head; rng; fr }

  let handle t = t.h

  let random_level t =
    let rec go l = if l < max_level && Asym_util.Rng.bool t.rng then go (l + 1) else l in
    go 1

  let hint lvl : [ `Hot | `Cold ] = if lvl >= hot_level then `Hot else `Cold

  let node_key t ~lvl addr = S.read_u64 ~hint:(hint lvl) t.s (addr + off_key)
  let node_next t ~lvl addr = S.read_u64 ~hint:(hint lvl) t.s (addr + next_off lvl)

  (* Find predecessors at every level; preds.(l) is the last node with
     key < [key] at level l (Figure 2's traversal). *)
  let find_preds t key =
    let preds = Array.make max_level t.head in
    let cur = ref t.head in
    for lvl = max_level - 1 downto 0 do
      let continue_ = ref true in
      while !continue_ do
        let nxt = node_next t ~lvl !cur in
        if nxt = 0L then continue_ := false
        else begin
          let nk = node_key t ~lvl (Int64.to_int nxt) in
          if nk < key then cur := Int64.to_int nxt else continue_ := false
        end
      done;
      preds.(lvl) <- !cur
    done;
    preds

  let lookup_node t key =
    let preds = find_preds t key in
    let cand = node_next t ~lvl:0 preds.(0) in
    if cand = 0L then (preds, None)
    else
      let cand = Int64.to_int cand in
      if node_key t ~lvl:0 cand = key then (preds, Some cand) else (preds, None)

  let put t ~key ~value =
    F.mutate t.fr ~optype:op_put ~params:(Params.of_kv key value) (fun ds ->
        match lookup_node t key with
        | _, Some node ->
            let old_blob = Int64.to_int (S.read_u64 ~hint:`Hot t.s (node + off_valptr)) in
            let valptr = B.alloc t.s ~ds value in
            S.write_u64 t.s ~ds (node + off_valptr) (Int64.of_int valptr);
            B.free t.s old_blob
        | preds, None ->
            let level = random_level t in
            let valptr = B.alloc t.s ~ds value in
            (* 1. the new node's successors; 2. swing predecessors bottom-up *)
            let nexts =
              Array.init level (fun lvl -> node_next t ~lvl preds.(lvl))
            in
            let node = write_new_node t ~ds ~key ~valptr ~level ~nexts in
            for lvl = 0 to level - 1 do
              S.write_u64 t.s ~ds (preds.(lvl) + next_off lvl) (Int64.of_int node)
            done)

  let find t ~key =
    F.read t.fr (fun () ->
        match lookup_node t key with
        | _, None -> None
        | _, Some node ->
            let blob = Int64.to_int (S.read_u64 ~hint:`Hot t.s (node + off_valptr)) in
            Some (B.read t.s blob))

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  let delete t ~key =
    F.mutate t.fr ~optype:op_delete ~params:(Params.of_key key) (fun ds ->
        match lookup_node t key with
        | _, None -> false
        | preds, Some node ->
            let level =
              Int32.to_int
                (Bytes.get_int32_le (S.read ~hint:`Hot t.s ~addr:(node + off_level) ~len:4) 0)
            in
            (* Unlink top-down so partially deleted nodes stay reachable at
               lower levels for concurrent readers. *)
            for lvl = level - 1 downto 0 do
              S.write_u64 t.s ~ds (preds.(lvl) + next_off lvl) (node_next t ~lvl node)
            done;
            let blob = Int64.to_int (S.read_u64 ~hint:`Hot t.s (node + off_valptr)) in
            S.free t.s node ~len:(node_size level);
            B.free t.s blob;
            true)

  (* Inclusive range scan: descend to the last node with key < lo, then
     walk level 0 — the skiplist equivalent of the B+Tree leaf scan. *)
  let range t ~lo ~hi =
    let preds = find_preds t lo in
    let out = ref [] in
    let cur = ref (node_next t ~lvl:0 preds.(0)) in
    let continue_ = ref true in
    while !continue_ && !cur <> 0L do
      let node = Int64.to_int !cur in
      let key = node_key t ~lvl:0 node in
      if key > hi then continue_ := false
      else begin
        if key >= lo then begin
          let blob = Int64.to_int (S.read_u64 ~hint:`Hot t.s (node + off_valptr)) in
          out := (key, B.read t.s blob) :: !out
        end;
        cur := node_next t ~lvl:0 node
      end
    done;
    List.rev !out

  let to_list t =
    let rec walk acc ptr =
      if ptr = 0L then List.rev acc
      else begin
        let node = Int64.to_int ptr in
        let key = node_key t ~lvl:0 node in
        let blob = Int64.to_int (S.read_u64 ~hint:`Hot t.s (node + off_valptr)) in
        walk ((key, B.read t.s blob) :: acc) (node_next t ~lvl:0 node)
      end
    in
    walk [] (node_next t ~lvl:0 t.head)

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pskiplist.replay: unknown optype %d" other
end
