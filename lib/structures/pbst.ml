(** Persistent binary search tree (lock-based, §8.3).

    Node layout (32 bytes): [[left][right][key][valptr]] with values in
    out-of-line blobs. The root word holds the root node address. Nodes
    near the root are read through the cache; the depth threshold adapts
    to the observed miss ratio ({!Level_cache}). Mutations run under the
    exclusive writer lock when the structure is configured lock-based. *)

open Asym_core

let op_put = 1
let op_delete = 2
let op_vinsert = 3

module Layout = struct
  let node_size = 32
  let off_left = 0
  let off_right = 8
  let off_key = 16
  let off_valptr = 24
end

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module F = Ds_intf.Frame (S)
  open Layout

  type t = { s : S.t; h : Types.handle; lc : Level_cache.t; fr : F.t }

  let attach ?(opts = Ds_intf.locked_options) ?(cache_all_levels = false) s ~name =
    let fr = F.attach ~opts s ~name in
    let lc =
      (* [cache_all_levels] reproduces the "native LRU" baseline of §8.3:
         every node goes through the cache, no level threshold. *)
      if cache_all_levels then Level_cache.create ~initial:48 ~period:max_int ~max_depth:48 ()
      else Level_cache.create ~max_depth:48 ()
    in
    { s; h = fr.F.h; lc; fr }

  let handle t = t.h

  let read_node t ~depth addr = S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:node_size

  let make_node t ~ds ~key ~valptr ~left ~right =
    let addr = S.malloc t.s node_size in
    let b = Bytes.create node_size in
    Bytes.set_int64_le b off_left (Int64.of_int left);
    Bytes.set_int64_le b off_right (Int64.of_int right);
    Bytes.set_int64_le b off_key key;
    Bytes.set_int64_le b off_valptr (Int64.of_int valptr);
    S.write t.s ~ds ~addr b;
    addr

  (* Descend to [key]. Returns [`Found (link, node, depth)] or
     [`Missing (link, depth)] where [link] is the pointer word to update. *)
  let locate t key =
    let rec go link depth =
      let node = S.read_u64 ~hint:(Level_cache.hint t.lc ~depth) t.s link in
      if node = 0L then `Missing (link, depth)
      else begin
        let node = Int64.to_int node in
        let b = read_node t ~depth node in
        let k = Bytes.get_int64_le b off_key in
        if key = k then `Found (link, node, depth)
        else if key < k then go (node + off_left) (depth + 1)
        else go (node + off_right) (depth + 1)
      end
    in
    go t.h.Types.root 0

  let put_nolog t ~ds key value =
    (match locate t key with
    | `Missing (link, _) ->
        let valptr = B.alloc t.s ~ds value in
        let node = make_node t ~ds ~key ~valptr ~left:0 ~right:0 in
        S.write_u64 t.s ~ds link (Int64.of_int node)
    | `Found (_, node, depth) ->
        let b = read_node t ~depth node in
        let old_blob = Int64.to_int (Bytes.get_int64_le b off_valptr) in
        let valptr = B.alloc t.s ~ds value in
        S.write_u64 t.s ~ds (node + off_valptr) (Int64.of_int valptr);
        B.free t.s old_blob);
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  let put t ~key ~value =
    F.mutate t.fr ~optype:op_put ~params:(Params.of_kv key value) (fun ds ->
        put_nolog t ~ds key value)

  let find t ~key =
    let v =
      F.read t.fr (fun () ->
          match locate t key with
          | `Missing _ -> None
          | `Found (_, node, depth) ->
              let b = read_node t ~depth node in
              let blob = Int64.to_int (Bytes.get_int64_le b off_valptr) in
              Some (B.read t.s blob))
    in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    v

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  (* Find the minimum node of the subtree at [*link], returning its link. *)
  let rec min_link t link depth =
    let node = Int64.to_int (S.read_u64 ~hint:(Level_cache.hint t.lc ~depth) t.s link) in
    let left = S.read_u64 ~hint:(Level_cache.hint t.lc ~depth) t.s (node + off_left) in
    if left = 0L then (link, node) else min_link t (node + off_left) (depth + 1)

  let delete t ~key =
    F.mutate t.fr ~optype:op_delete ~params:(Params.of_key key) (fun ds ->
        let result =
          match locate t key with
          | `Missing _ -> false
          | `Found (link, node, depth) ->
              let b = read_node t ~depth node in
              let left = Int64.to_int (Bytes.get_int64_le b off_left) in
              let right = Int64.to_int (Bytes.get_int64_le b off_right) in
              let blob = Int64.to_int (Bytes.get_int64_le b off_valptr) in
              (if left = 0 then S.write_u64 t.s ~ds link (Int64.of_int right)
               else if right = 0 then S.write_u64 t.s ~ds link (Int64.of_int left)
               else begin
                 (* Two children: splice the successor node into our place. *)
                 let succ_link, succ = min_link t (node + off_right) (depth + 1) in
                 let succ_right = S.read_u64 ~hint:`Hot t.s (succ + off_right) in
                 (* Detach the successor (it has no left child). *)
                 S.write_u64 t.s ~ds succ_link succ_right;
                 (* The successor takes over our children and our slot. Its
                    right child must be re-read: it may have been [succ]'s
                    detachment target when right = succ. *)
                 let new_right = S.read_u64 ~hint:`Hot t.s (node + off_right) in
                 S.write_u64 t.s ~ds (succ + off_left) (Int64.of_int left);
                 S.write_u64 t.s ~ds (succ + off_right) new_right;
                 S.write_u64 t.s ~ds link (Int64.of_int succ)
               end);
              S.free t.s node ~len:node_size;
              B.free t.s blob;
              true
        in
        Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
        result)

  (* Vector write (Algorithm 3): one lock acquisition and one operation
     log record for a sorted batch of inserts; sorted order makes upper
     tree nodes hit the cache across consecutive keys. *)
  let insert_vector t pairs =
    let pairs = List.sort (fun (a, _) (b, _) -> Int64.compare a b) pairs in
    F.mutate t.fr ~optype:op_vinsert ~params:(Params.of_kvs pairs) (fun ds ->
        List.iter (fun (key, value) -> put_nolog t ~ds key value) pairs)

  let fold t f init =
    let rec go acc ptr =
      if ptr = 0L then acc
      else begin
        let node = Int64.to_int ptr in
        let b = S.read ~hint:`Hot t.s ~addr:node ~len:node_size in
        let acc = go acc (Bytes.get_int64_le b off_left) in
        let blob = Int64.to_int (Bytes.get_int64_le b off_valptr) in
        let acc = f acc (Bytes.get_int64_le b off_key) (B.read t.s blob) in
        go acc (Bytes.get_int64_le b off_right)
      end
    in
    go init (S.read_u64 ~hint:`Hot t.s t.h.Types.root)

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  (* Inclusive range scan, pruning subtrees outside [lo, hi]. *)
  let range t ~lo ~hi =
    let rec go acc ptr =
      if ptr = 0L then acc
      else begin
        let node = Int64.to_int ptr in
        let b = S.read ~hint:`Hot t.s ~addr:node ~len:node_size in
        let key = Bytes.get_int64_le b off_key in
        let acc = if key > lo then go acc (Bytes.get_int64_le b off_left) else acc in
        let acc =
          if key >= lo && key <= hi then begin
            let blob = Int64.to_int (Bytes.get_int64_le b off_valptr) in
            (key, B.read t.s blob) :: acc
          end
          else acc
        in
        if key < hi then go acc (Bytes.get_int64_le b off_right) else acc
      end
    in
    List.rev (go [] (S.read_u64 ~hint:`Hot t.s t.h.Types.root))

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | x when x = op_vinsert -> insert_vector t (Params.to_kvs op.Log.Op_entry.params)
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pbst.replay: unknown optype %d" other
end
