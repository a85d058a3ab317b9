(** Multi-version (copy-on-write) B+Tree — the append-only B-Tree of §6.2.

    The nodes are {!Pbptree.Node}s, but immutable once stored: an insert
    edits the loaded copy of each node on the path, stores it at a fresh
    address and installs the new version with a root CAS. Leaf
    chaining is dropped (a chained leaf would need
    in-place updates); in-order traversal goes through the tree. *)

open Asym_core

let op_put = 1
let op_delete = 2

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module F = Ds_intf.Frame (S)
  open Pbptree.Node

  type t = { s : S.t; h : Types.handle; gc : F.Gc.t; lc : Level_cache.t; fr : F.t }

  let attach ?(opts = Ds_intf.default_options) s ~name =
    let fr = F.attach ~opts s ~name in
    let lc = Level_cache.create ~initial:2 ~max_depth:12 () in
    { s; h = fr.F.h; gc = F.Gc.create s; lc; fr }

  let handle t = t.h
  let gc_pending t = F.Gc.pending t.gc
  let gc_drain t = F.Gc.drain t.gc

  let load t ~depth addr = S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:node_bytes

  let alloc_node t ~ds ~created n =
    let addr = S.malloc t.s node_bytes in
    S.write t.s ~ds ~addr n;
    created := (addr, node_bytes) :: !created;
    addr

  (* Store a path copy, and the right half when the insert that made it
     split it (after the insert, unlike the in-place tree): two fresh
     nodes and a separator to propagate. *)
  let alloc_split t ~ds ~created n split =
    let laddr = alloc_node t ~ds ~created n in
    match split with
    | None -> (laddr, None)
    | Some (sep, right) -> (laddr, Some (sep, alloc_node t ~ds ~created right))

  let put t ~key ~value =
    ignore
      (F.mutate_version t.fr t.gc ~optype:op_put ~params:(Params.of_kv key value)
         (fun ~ds ~created ~obsolete root ->
           let valptr = B.alloc t.s ~ds value in
           created := (valptr, B.size t.s valptr) :: !created;
           (* Copy-on-write insert: returns the copied child's address and
              an optional split to propagate. *)
           let rec ins addr depth =
             if addr = 0 then begin
               let leaf = empty true in
               leaf_insert_at leaf 0 key valptr;
               alloc_split t ~ds ~created leaf None
             end
             else begin
               let n = load t ~depth addr in
               obsolete := (addr, node_bytes) :: !obsolete;
               let split =
                 if leaf n then begin
                   let pos = leaf_pos n key in
                   if pos < nkeys n && Pbptree.Node.key n pos = key then begin
                     let old = Pbptree.Node.value n pos in
                     obsolete := (old, B.size t.s old) :: !obsolete;
                     set_value n pos valptr;
                     None
                   end
                   else insert_split n pos key valptr
                 end
                 else begin
                   let idx = child_index n key in
                   let child', spl = ins (child n idx) (depth + 1) in
                   set_child n idx child';
                   match spl with
                   | None -> None
                   | Some (sep, raddr) -> insert_split n idx sep raddr
                 end
               in
               alloc_split t ~ds ~created n split
             end
           in
           let new_child, spl = ins root 0 in
           match spl with
           | None -> Some new_child
           | Some (sep, raddr) ->
               let nroot = empty false in
               set_child nroot 0 new_child;
               internal_insert_at nroot 0 sep raddr;
               Some (alloc_node t ~ds ~created nroot)));
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  let find t ~key =
    let v =
      F.read ~retry_on:`Torn t.fr (fun () ->
          let rec go addr depth =
            if addr = 0 then None
            else begin
              let n = load t ~depth addr in
              if leaf n then begin
                let pos = leaf_pos n key in
                if pos < nkeys n && Pbptree.Node.key n pos = key then
                  Some (B.read t.s (value n pos))
                else None
              end
              else go (child n (child_index n key)) (depth + 1)
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
          (* Leaf-local deletion with path copying (no rebalancing). *)
          let rec del addr depth =
            if addr = 0 then None
            else begin
              let n = load t ~depth addr in
              if leaf n then begin
                let pos = leaf_pos n key in
                if pos < nkeys n && Pbptree.Node.key n pos = key then begin
                  obsolete := (addr, node_bytes) :: !obsolete;
                  obsolete := (value n pos, B.size t.s (value n pos)) :: !obsolete;
                  leaf_remove_at n pos;
                  Some (alloc_node t ~ds ~created n)
                end
                else None
              end
              else begin
                let idx = child_index n key in
                match del (child n idx) (depth + 1) with
                | None -> None
                | Some child' ->
                    obsolete := (addr, node_bytes) :: !obsolete;
                    set_child n idx child';
                    Some (alloc_node t ~ds ~created n)
              end
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
        if leaf n then begin
          let acc = ref acc in
          for i = 0 to nkeys n - 1 do
            acc := f !acc (Pbptree.Node.key n i) (B.read t.s (value n i))
          done;
          !acc
        end
        else begin
          let acc = ref acc in
          for i = 0 to nkeys n do
            acc := go !acc (child n i)
          done;
          !acc
        end
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
    | other -> Fmt.invalid_arg "Pmvbptree.replay: unknown optype %d" other
end
