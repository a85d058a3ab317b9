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

(* Store-independent: the node is a view over its 512-byte on-media image,
   shared with the multi-version tree. Reads go to the image in place and
   every edit is a blit on it, so the buffer a traversal loads is the one
   [store] writes. The image has no spare slot, so an insert into a full
   node goes through [insert_split], which writes the two halves the
   overflowed node would split into. *)
module Node = struct
  type t = bytes

  let node_bytes = 512

  (* Byte offsets of the slot arrays (see the layout above). *)
  let leaf_keys = 16
  let leaf_vals = 264
  let inner_keys = 8
  let inner_children = 256

  (* [Bytes.get_int64_le] is an out-of-line call that boxes its result;
     the primitives inline and stay unboxed. [get64u] skips the bounds
     check, so it reads only offsets known to lie inside the image. *)
  external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
  external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
  external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"
  external swap64 : int64 -> int64 = "%bswap_int64"

  let[@inline] get_le n off = if Sys.big_endian then swap64 (get64 n off) else get64 n off
  let[@inline] set_le n off v = set64 n off (if Sys.big_endian then swap64 v else v)

  let empty leaf =
    let n = Bytes.make node_bytes '\000' in
    Bytes.set_uint8 n 0 (if leaf then 1 else 2);
    n

  let[@inline] leaf n = Bytes.get_uint8 n 0 = 1
  let[@inline] nkeys n = Bytes.get_uint8 n 1
  let set_nkeys n k = Bytes.set_uint8 n 1 k
  let[@inline] keys_base n = if leaf n then leaf_keys else inner_keys

  (* Slot [i] of a [slots]-slot array. An optimistic reader can load a
     torn or reclaimed block that claims up to 255 keys: past the image it
     reads one zero slot, then raises [Invalid_argument], which aborts the
     read section. *)
  let[@inline] slot n ~base ~slots i =
    if i < slots then get_le n (base + (8 * i))
    else if i = slots then 0L
    else invalid_arg "index out of bounds"

  let[@inline] set_slot n ~base i v = set_le n (base + (8 * i)) v

  let[@inline] key n i = slot n ~base:(keys_base n) ~slots:max_keys i
  let[@inline] child n i = Int64.to_int (slot n ~base:inner_children ~slots:fanout i)
  let[@inline] value n i = Int64.to_int (slot n ~base:leaf_vals ~slots:max_keys i)
  let[@inline] next n = Int64.to_int (get_le n 8)
  let set_child n i c = set_slot n ~base:inner_children i (Int64.of_int c)
  let set_value n i v = set_slot n ~base:leaf_vals i (Int64.of_int v)
  let set_next n a = set_le n 8 (Int64.of_int a)

  (* The first of the node's keys [>= k] ([strict]) or [> k], as an
     index. A well-formed node's keys all lie inside its 512 bytes, so
     the scan reads them without a per-slot bounds test. *)
  let[@inline] scan n k ~strict =
    let nk = nkeys n and i = ref 0 in
    if nk <= max_keys && Bytes.length n = node_bytes then begin
      let base = keys_base n in
      while
        !i < nk
        &&
        let x = get64u n (base + (8 * !i)) in
        let x = if Sys.big_endian then swap64 x else x in
        if strict then x < k else x <= k
      do
        incr i
      done
    end
    else
      while
        !i < nk
        &&
        let x = key n !i in
        if strict then x < k else x <= k
      do
        incr i
      done;
    !i

  (* Index of the child to descend into: number of separator keys <= key. *)
  let child_index n k = scan n k ~strict:false

  (* Position of [key] in a leaf, or the insertion point. *)
  let leaf_pos n k = scan n k ~strict:true

  (* Move [len] slots of the array at [base] from slot [src] to [dst]. *)
  let shift n ~base ~src ~dst len =
    if len > 0 then Bytes.blit n (base + (8 * src)) n (base + (8 * dst)) (8 * len)

  let leaf_insert_at n pos key valptr =
    let nk = nkeys n in
    assert (nk < max_keys);
    shift n ~base:leaf_keys ~src:pos ~dst:(pos + 1) (nk - pos);
    shift n ~base:leaf_vals ~src:pos ~dst:(pos + 1) (nk - pos);
    set_slot n ~base:leaf_keys pos key;
    set_value n pos valptr;
    set_nkeys n (nk + 1)

  (* The vacated last slot keeps a stale copy: nothing reads past [nkeys]. *)
  let leaf_remove_at n pos =
    let nk = nkeys n in
    shift n ~base:leaf_keys ~src:(pos + 1) ~dst:pos (nk - pos - 1);
    shift n ~base:leaf_vals ~src:(pos + 1) ~dst:pos (nk - pos - 1);
    set_nkeys n (nk - 1)

  let internal_insert_at n pos key child =
    let nk = nkeys n in
    assert (nk < max_keys);
    shift n ~base:inner_keys ~src:pos ~dst:(pos + 1) (nk - pos);
    shift n ~base:inner_children ~src:(pos + 1) ~dst:(pos + 2) (nk - pos);
    set_slot n ~base:inner_keys pos key;
    set_child n (pos + 1) child;
    set_nkeys n (nk + 1)

  (* One slot array of a node being split. Logically the array is its
     first [upto] slots with [x] inserted at [at] ([at >= upto]: nothing
     inserted). Slots [from, upto) of that sequence go to [right]; [n]
     keeps [0, keep) and zeroes the image slots it vacates. *)
  let spread n ~base ~slots ~at ~x ~keep ~from ~upto right =
    let copy src dst len =
      if len > 0 then Bytes.blit n (base + (8 * src)) right (base + (8 * dst)) (8 * len)
    in
    if at < from then copy (from - 1) 0 (upto - from)
    else if at < upto then begin
      copy from 0 (at - from);
      set_slot right ~base (at - from) x;
      copy at (at - from + 1) (upto - at - 1)
    end
    else copy from 0 (upto - from);
    if at < keep then begin
      shift n ~base ~src:at ~dst:(at + 1) (keep - 1 - at);
      set_slot n ~base at x
    end;
    let hi = min upto slots in
    if hi > keep then Bytes.fill n (base + (8 * keep)) (8 * (hi - keep)) '\000'

  (* Split the [total]-key node that [n] holds with [k]/[ptr] inserted
     at [at] ([at = total]: no insert). A leaf keeps [total / 2] keys, the
     separator is the sibling's first key and the sibling takes over the
     chain link; an internal node pushes its middle key up. *)
  let split_with n ~total ~at k ptr =
    let right = empty (leaf n) in
    if leaf n then begin
      let half = total / 2 in
      spread n ~base:leaf_keys ~slots:max_keys ~at ~x:k ~keep:half ~from:half ~upto:total
        right;
      spread n ~base:leaf_vals ~slots:max_keys ~at ~x:(Int64.of_int ptr) ~keep:half ~from:half
        ~upto:total right;
      set_nkeys right (total - half);
      set_nkeys n half;
      set_next right (next n);
      (get_le right leaf_keys, right)
    end
    else begin
      let mid = total / 2 in
      let sep = if mid < at then key n mid else if mid = at then k else key n (mid - 1) in
      spread n ~base:inner_keys ~slots:max_keys ~at ~x:k ~keep:mid ~from:(mid + 1) ~upto:total
        right;
      spread n ~base:inner_children ~slots:fanout ~at:(at + 1) ~x:(Int64.of_int ptr)
        ~keep:(mid + 1) ~from:(mid + 1) ~upto:(total + 1) right;
      set_nkeys right (total - mid - 1);
      set_nkeys n mid;
      (sep, right)
    end

  let split n =
    let nk = nkeys n in
    split_with n ~total:nk ~at:nk 0L 0

  let insert_split n pos key ptr =
    let nk = nkeys n in
    if nk < max_keys then begin
      if leaf n then leaf_insert_at n pos key ptr else internal_insert_at n pos key ptr;
      None
    end
    else Some (split_with n ~total:(nk + 1) ~at:pos key ptr)
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

  let load t ~depth addr = S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:node_bytes
  let store t ~ds addr n = S.write t.s ~ds ~addr n

  let alloc_node t ~ds n =
    let addr = S.malloc t.s node_bytes in
    store t ~ds addr n;
    addr

  (* Returns [Some (sep, right_addr)] if [addr] split. A full leaf splits
     before the insert; a full internal node splits as if it had taken the
     separator first. *)
  let rec insert_rec t ~ds addr depth key valptr =
    let n = load t ~depth addr in
    if leaf n then begin
      let pos = leaf_pos n key in
      if pos < nkeys n && Node.key n pos = key then begin
        let old = value n pos in
        set_value n pos valptr;
        store t ~ds addr n;
        B.free t.s old;
        None
      end
      else if nkeys n < max_keys then begin
        leaf_insert_at n pos key valptr;
        store t ~ds addr n;
        None
      end
      else begin
        let sep, right = split n in
        (if key >= sep then leaf_insert_at right (leaf_pos right key) key valptr
         else leaf_insert_at n (leaf_pos n key) key valptr);
        let right_addr = alloc_node t ~ds right in
        set_next n right_addr;
        store t ~ds addr n;
        Some (sep, right_addr)
      end
    end
    else begin
      let idx = child_index n key in
      match insert_rec t ~ds (child n idx) (depth + 1) key valptr with
      | None -> None
      | Some (sep, right_addr) -> (
          match insert_split n idx sep right_addr with
          | None ->
              store t ~ds addr n;
              None
          | Some (osep, right) ->
              let raddr = alloc_node t ~ds right in
              store t ~ds addr n;
              Some (osep, raddr))
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
           set_child nroot 0 root;
           internal_insert_at nroot 0 sep right_addr;
           let addr = alloc_node t ~ds nroot in
           S.write_u64 t.s ~ds t.h.Types.root (Int64.of_int addr));
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  let put t ~key ~value =
    F.mutate t.fr ~optype:op_put ~params:(Params.of_kv key value) (fun ds ->
        put_nolog t ~ds key value)

  let rec find_leaf t ~depth addr key =
    let n = load t ~depth addr in
    if leaf n then n else find_leaf t ~depth:(depth + 1) (child n (child_index n key)) key

  let find t ~key =
    let v =
      F.read t.fr (fun () ->
          let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
          if root = 0 then None
          else begin
            let leaf = find_leaf t ~depth:0 root key in
            let pos = leaf_pos leaf key in
            if pos < nkeys leaf && Node.key leaf pos = key then Some (B.read t.s (value leaf pos))
            else None
          end)
    in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    v

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  let rec delete_rec t ~ds addr depth key =
    let n = load t ~depth addr in
    if leaf n then begin
      let pos = leaf_pos n key in
      if pos < nkeys n && Node.key n pos = key then begin
        let blob = value n pos in
        leaf_remove_at n pos;
        store t ~ds addr n;
        B.free t.s blob;
        true
      end
      else false
    end
    else delete_rec t ~ds (child n (child_index n key)) (depth + 1) key

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
        for i = 0 to nkeys n - 1 do
          let k = key n i in
          if k >= lo && k <= hi then out := (k, B.read t.s (value n i)) :: !out
        done;
        if nkeys n > 0 && key n (nkeys n - 1) > hi then continue_ := false
        else if next n = 0 then continue_ := false
        else leaf := load t ~depth:12 (next n)
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
