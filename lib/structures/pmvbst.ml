(** Multi-version binary search tree (lock-free, §6.2 / Figure 5).

    Nodes are immutable ([[left][right][key][valptr]], 32 bytes): a writer
    copies every node on the path to the root (path copying), then switches
    the root pointer with one RDMA compare-and-swap. Readers never lock and
    never retry — any root they observe anchors a complete, consistent
    version. Superseded nodes are reclaimed by the lazy GC after the §6.2
    grace period. *)

open Asym_core

let op_put = 1
let op_delete = 2

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module F = Ds_intf.Frame (S)
  open Pbst.Layout

  type t = { s : S.t; h : Types.handle; gc : F.Gc.t; lc : Level_cache.t; fr : F.t }

  let attach ?(opts = Ds_intf.default_options) s ~name =
    let fr = F.attach ~opts s ~name in
    { s; h = fr.F.h; gc = F.Gc.create s; lc = Level_cache.create ~max_depth:48 (); fr }

  let handle t = t.h
  let gc_pending t = F.Gc.pending t.gc
  let gc_drain t = F.Gc.drain t.gc

  type node = { left : int; right : int; key : int64; valptr : int }

  let load t ~depth addr =
    let b = S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:node_size in
    {
      left = Int64.to_int (Bytes.get_int64_le b off_left);
      right = Int64.to_int (Bytes.get_int64_le b off_right);
      key = Bytes.get_int64_le b off_key;
      valptr = Int64.to_int (Bytes.get_int64_le b off_valptr);
    }

  let alloc_node t ~ds ~created n =
    let addr = S.malloc t.s node_size in
    let b = Bytes.create node_size in
    Bytes.set_int64_le b off_left (Int64.of_int n.left);
    Bytes.set_int64_le b off_right (Int64.of_int n.right);
    Bytes.set_int64_le b off_key n.key;
    Bytes.set_int64_le b off_valptr (Int64.of_int n.valptr);
    S.write t.s ~ds ~addr b;
    created := (addr, node_size) :: !created;
    addr

  let put t ~key ~value =
    ignore
      (F.mutate_version t.fr t.gc ~optype:op_put ~params:(Params.of_kv key value)
         (fun ~ds ~created ~obsolete root ->
           let valptr = B.alloc t.s ~ds value in
           created := (valptr, B.size t.s valptr) :: !created;
           let rec ins addr depth =
             if addr = 0 then alloc_node t ~ds ~created { left = 0; right = 0; key; valptr }
             else begin
               let n = load t ~depth addr in
               obsolete := (addr, node_size) :: !obsolete;
               if key = n.key then begin
                 obsolete := (n.valptr, B.size t.s n.valptr) :: !obsolete;
                 alloc_node t ~ds ~created { n with valptr }
               end
               else if key < n.key then
                 alloc_node t ~ds ~created { n with left = ins n.left (depth + 1) }
               else alloc_node t ~ds ~created { n with right = ins n.right (depth + 1) }
             end
           in
           Some (ins root 0)));
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  (* Readers never lock and never need conflict retries (any completed
     version is consistent); the section only guards against traversing
     pages of reclaimed nodes. *)
  let find t ~key =
    let v =
      F.read ~retry_on:`Torn t.fr (fun () ->
          let rec go addr depth =
            if addr = 0 then None
            else begin
              let n = load t ~depth addr in
              if key = n.key then Some (B.read t.s n.valptr)
              else if key < n.key then go n.left (depth + 1)
              else go n.right (depth + 1)
            end
          in
          go (Int64.to_int (F.current_root t.fr)) 0)
    in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    v

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  let delete t ~key =
    let changed =
      F.mutate_version t.fr t.gc ~optype:op_delete ~params:(Params.of_key key)
        (fun ~ds ~created ~obsolete root ->
          (* Remove the minimum of the subtree, returning it and the new
             subtree (path-copied). *)
          let rec take_min addr depth =
            let n = load t ~depth addr in
            obsolete := (addr, node_size) :: !obsolete;
            if n.left = 0 then (n, n.right)
            else begin
              let m, rest = take_min n.left (depth + 1) in
              (m, alloc_node t ~ds ~created { n with left = rest })
            end
          in
          let rec del addr depth =
            if addr = 0 then None
            else begin
              let n = load t ~depth addr in
              if key = n.key then begin
                obsolete := (addr, node_size) :: !obsolete;
                obsolete := (n.valptr, B.size t.s n.valptr) :: !obsolete;
                if n.left = 0 then Some n.right
                else if n.right = 0 then Some n.left
                else begin
                  (* The successor node is re-created at our slot; its
                     original copy is obsoleted inside [take_min]. *)
                  let m, right' = take_min n.right (depth + 1) in
                  Some
                    (alloc_node t ~ds ~created
                       { left = n.left; right = right'; key = m.key; valptr = m.valptr })
                end
              end
              else if key < n.key then
                match del n.left (depth + 1) with
                | None -> None
                | Some l' ->
                    obsolete := (addr, node_size) :: !obsolete;
                    Some (alloc_node t ~ds ~created { n with left = l' })
              else
                match del n.right (depth + 1) with
                | None -> None
                | Some r' ->
                    obsolete := (addr, node_size) :: !obsolete;
                    Some (alloc_node t ~ds ~created { n with right = r' })
            end
          in
          del root 0)
    in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    changed

  let fold t f init =
    let rec go acc addr =
      if addr = 0 then acc
      else begin
        let n = load t ~depth:8 addr in
        let acc = go acc n.left in
        let acc = f acc n.key (B.read t.s n.valptr) in
        go acc n.right
      end
    in
    go init (Int64.to_int (S.read_u64 ~hint:`Cold t.s t.h.Types.root))

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pmvbst.replay: unknown optype %d" other
end
