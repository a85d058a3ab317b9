(** Persistent B+Tree (lock-based, §8.3), fan-out 32.

    Fixed 512-byte nodes:
    - internal: [[tag][nkeys][pad6][keys: 31 x u64][children: 32 x u64]]
    - leaf:     [[tag][nkeys][pad6][next: u64][keys: 31 x u64][valptrs: 31 x u64]]

    Values live in out-of-line blobs; leaves are chained for range scans.
    Upper levels are read through the cache with the adaptive depth
    threshold of §8.3; leaves below the threshold bypass it. Deletion is
    leaf-local (no rebalancing): emptied leaves stay linked, which keeps
    lookups correct — the standard relaxed B+Tree used by log-structured
    stores. *)

open Asym_core

let op_put = 1
let op_delete = 2
let op_vinsert = 3
let fanout = 32
let max_keys = fanout - 1

(* Store-independent: the node record and its 512-byte codec, search,
   insert and split, shared with the multi-version tree. Arrays carry one
   spare slot: a node transiently holds max_keys + 1 keys between an
   insert and the split that follows; the overflowed shape is never
   encoded to NVM. *)
module Node = struct
  type t = {
    leaf : bool;
    mutable nkeys : int;
    keys : int64 array;  (* max_keys (+ 1 spare) *)
    children : int array;  (* fanout (+ 1 spare), internal only *)
    mutable next : int;  (* leaf only *)
    vals : int array;  (* max_keys (+ 1 spare), leaf only *)
  }

  let node_bytes = 512

  let empty leaf =
    {
      leaf;
      nkeys = 0;
      keys = Array.make (max_keys + 1) 0L;
      children = Array.make (fanout + 1) 0;
      next = 0;
      vals = Array.make (max_keys + 1) 0;
    }

  let encode n =
    assert (n.nkeys <= max_keys);
    let b = Bytes.make node_bytes '\000' in
    Bytes.set_uint8 b 0 (if n.leaf then 1 else 2);
    Bytes.set_uint8 b 1 n.nkeys;
    if n.leaf then begin
      Bytes.set_int64_le b 8 (Int64.of_int n.next);
      for i = 0 to max_keys - 1 do
        Bytes.set_int64_le b (16 + (8 * i)) n.keys.(i);
        Bytes.set_int64_le b (264 + (8 * i)) (Int64.of_int n.vals.(i))
      done
    end
    else
      for i = 0 to fanout - 1 do
        if i < max_keys then Bytes.set_int64_le b (8 + (8 * i)) n.keys.(i);
        Bytes.set_int64_le b (256 + (8 * i)) (Int64.of_int n.children.(i))
      done;
    b

  let decode b =
    let leaf = Bytes.get_uint8 b 0 = 1 in
    let n = empty leaf in
    n.nkeys <- Bytes.get_uint8 b 1;
    if leaf then begin
      n.next <- Int64.to_int (Bytes.get_int64_le b 8);
      for i = 0 to max_keys - 1 do
        n.keys.(i) <- Bytes.get_int64_le b (16 + (8 * i));
        n.vals.(i) <- Int64.to_int (Bytes.get_int64_le b (264 + (8 * i)))
      done
    end
    else
      for i = 0 to fanout - 1 do
        if i < max_keys then n.keys.(i) <- Bytes.get_int64_le b (8 + (8 * i));
        n.children.(i) <- Int64.to_int (Bytes.get_int64_le b (256 + (8 * i)))
      done;
    n

  (* Index of the child to descend into: number of separator keys <= key. *)
  let child_index n key =
    let rec go i = if i < n.nkeys && n.keys.(i) <= key then go (i + 1) else i in
    go 0

  (* Position of [key] in a leaf, or the insertion point. *)
  let leaf_pos n key =
    let rec go i = if i < n.nkeys && n.keys.(i) < key then go (i + 1) else i in
    go 0

  let leaf_insert_at n pos key valptr =
    for i = n.nkeys downto pos + 1 do
      n.keys.(i) <- n.keys.(i - 1);
      n.vals.(i) <- n.vals.(i - 1)
    done;
    n.keys.(pos) <- key;
    n.vals.(pos) <- valptr;
    n.nkeys <- n.nkeys + 1

  let leaf_remove_at n pos =
    for i = pos to n.nkeys - 2 do
      n.keys.(i) <- n.keys.(i + 1);
      n.vals.(i) <- n.vals.(i + 1)
    done;
    n.nkeys <- n.nkeys - 1

  let internal_insert_at n pos key child =
    for i = n.nkeys downto pos + 1 do
      n.keys.(i) <- n.keys.(i - 1)
    done;
    for i = n.nkeys + 1 downto pos + 2 do
      n.children.(i) <- n.children.(i - 1)
    done;
    n.keys.(pos) <- key;
    n.children.(pos + 1) <- child;
    n.nkeys <- n.nkeys + 1

  (* Split [n] in two, zeroing the slots it vacates; returns the separator
     and the new right sibling (still unallocated). A leaf keeps its lower
     half and hands its chain link to the sibling; an internal node pushes
     its middle key up. *)
  let split n =
    let right = empty n.leaf in
    if n.leaf then begin
      let half = n.nkeys / 2 in
      let moved = n.nkeys - half in
      for i = 0 to moved - 1 do
        right.keys.(i) <- n.keys.(half + i);
        right.vals.(i) <- n.vals.(half + i);
        n.keys.(half + i) <- 0L;
        n.vals.(half + i) <- 0
      done;
      right.nkeys <- moved;
      n.nkeys <- half;
      right.next <- n.next;
      (right.keys.(0), right)
    end
    else begin
      let mid = n.nkeys / 2 in
      let sep = n.keys.(mid) in
      let moved = n.nkeys - mid - 1 in
      for i = 0 to moved - 1 do
        right.keys.(i) <- n.keys.(mid + 1 + i);
        n.keys.(mid + 1 + i) <- 0L
      done;
      for i = 0 to moved do
        right.children.(i) <- n.children.(mid + 1 + i);
        n.children.(mid + 1 + i) <- 0
      done;
      right.nkeys <- moved;
      n.keys.(mid) <- 0L;
      n.nkeys <- mid;
      (sep, right)
    end
end

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module F = Ds_intf.Frame (S)
  open Node

  type t = { s : S.t; h : Types.handle; lc : Level_cache.t; fr : F.t }

  let attach ?(opts = Ds_intf.locked_options) s ~name =
    let fr = F.attach ~opts s ~name in
    { s; h = fr.F.h; lc = Level_cache.create ~initial:2 ~max_depth:12 (); fr }

  let handle t = t.h

  let load t ~depth addr =
    decode (S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:node_bytes)

  let store t ~ds addr n = S.write t.s ~ds ~addr (encode n)

  let alloc_node t ~ds n =
    let addr = S.malloc t.s node_bytes in
    store t ~ds addr n;
    addr

  (* Returns [Some (sep, right_addr)] if [addr] split. A full leaf splits
     before the insert; an internal node overflows by one in DRAM and
     splits before it is stored. *)
  let rec insert_rec t ~ds addr depth key valptr =
    let n = load t ~depth addr in
    if n.leaf then begin
      let pos = leaf_pos n key in
      if pos < n.nkeys && n.keys.(pos) = key then begin
        let old = n.vals.(pos) in
        n.vals.(pos) <- valptr;
        store t ~ds addr n;
        B.free t.s old;
        None
      end
      else if n.nkeys < max_keys then begin
        leaf_insert_at n pos key valptr;
        store t ~ds addr n;
        None
      end
      else begin
        let sep, right = split n in
        (if key >= sep then leaf_insert_at right (leaf_pos right key) key valptr
         else leaf_insert_at n (leaf_pos n key) key valptr);
        let right_addr = alloc_node t ~ds right in
        n.next <- right_addr;
        store t ~ds addr n;
        Some (sep, right_addr)
      end
    end
    else begin
      let idx = child_index n key in
      match insert_rec t ~ds n.children.(idx) (depth + 1) key valptr with
      | None -> None
      | Some (sep, right_addr) ->
          internal_insert_at n idx sep right_addr;
          if n.nkeys <= max_keys then begin
            store t ~ds addr n;
            None
          end
          else begin
            let osep, right = split n in
            let raddr = alloc_node t ~ds right in
            store t ~ds addr n;
            Some (osep, raddr)
          end
    end

  let put_nolog t ~ds key value =
    let valptr = B.alloc t.s ~ds value in
    let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
    (if root = 0 then begin
       let leaf = empty true in
       leaf_insert_at leaf 0 key valptr;
       let addr = alloc_node t ~ds leaf in
       S.write_u64 t.s ~ds t.h.Types.root (Int64.of_int addr)
     end
     else
       match insert_rec t ~ds root 0 key valptr with
       | None -> ()
       | Some (sep, right_addr) ->
           let nroot = empty false in
           nroot.nkeys <- 1;
           nroot.keys.(0) <- sep;
           nroot.children.(0) <- root;
           nroot.children.(1) <- right_addr;
           let addr = alloc_node t ~ds nroot in
           S.write_u64 t.s ~ds t.h.Types.root (Int64.of_int addr));
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  let put t ~key ~value =
    F.mutate t.fr ~optype:op_put ~params:(Params.of_kv key value) (fun ds ->
        put_nolog t ~ds key value)

  let rec find_leaf t ~depth addr key =
    let n = load t ~depth addr in
    if n.leaf then n else find_leaf t ~depth:(depth + 1) n.children.(child_index n key) key

  let find t ~key =
    let v =
      F.read t.fr (fun () ->
          let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
          if root = 0 then None
          else begin
            let leaf = find_leaf t ~depth:0 root key in
            let pos = leaf_pos leaf key in
            if pos < leaf.nkeys && leaf.keys.(pos) = key then Some (B.read t.s leaf.vals.(pos))
            else None
          end)
    in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    v

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  let rec delete_rec t ~ds addr depth key =
    let n = load t ~depth addr in
    if n.leaf then begin
      let pos = leaf_pos n key in
      if pos < n.nkeys && n.keys.(pos) = key then begin
        let blob = n.vals.(pos) in
        leaf_remove_at n pos;
        store t ~ds addr n;
        B.free t.s blob;
        true
      end
      else false
    end
    else delete_rec t ~ds n.children.(child_index n key) (depth + 1) key

  let delete t ~key =
    F.mutate t.fr ~optype:op_delete ~params:(Params.of_key key) (fun ds ->
        let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
        let r = if root = 0 then false else delete_rec t ~ds root 0 key in
        Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
        r)

  let insert_vector t pairs =
    let pairs = List.sort (fun (a, _) (b, _) -> Int64.compare a b) pairs in
    F.mutate t.fr ~optype:op_vinsert ~params:(Params.of_kvs pairs) (fun ds ->
        List.iter (fun (key, value) -> put_nolog t ~ds key value) pairs)

  (* In-order range scan over the leaf chain. *)
  let range t ~lo ~hi =
    let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
    if root = 0 then []
    else begin
      let leaf = ref (find_leaf t ~depth:0 root lo) in
      let out = ref [] in
      let continue_ = ref true in
      while !continue_ do
        let n = !leaf in
        for i = 0 to n.nkeys - 1 do
          if n.keys.(i) >= lo && n.keys.(i) <= hi then
            out := (n.keys.(i), B.read t.s n.vals.(i)) :: !out
        done;
        if n.nkeys > 0 && n.keys.(n.nkeys - 1) > hi then continue_ := false
        else if n.next = 0 then continue_ := false
        else leaf := load t ~depth:12 n.next
      done;
      List.rev !out
    end

  let to_list t = range t ~lo:Int64.min_int ~hi:Int64.max_int

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | x when x = op_vinsert -> insert_vector t (Params.to_kvs op.Log.Op_entry.params)
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pbptree.replay: unknown optype %d" other
end
