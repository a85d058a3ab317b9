(** Persistent chained hash table (§8.2).

    Layout: the root word points at a header [{nbuckets; count; buckets_ptr}];
    the bucket array is one contiguous allocation of [nbuckets] pointer
    words; chain nodes are [[next][key][len][pad][value bytes]]. Key/value
    items are the caching granularity; batching brings the structure no
    benefit (the paper disables it for O(1) structures), so callers
    typically run it under the RC configuration. *)

open Asym_core

let op_put = 1
let op_delete = 2

module Make (S : Store.S) = struct
  module F = Ds_intf.Frame (S)

  type t = {
    s : S.t;
    h : Types.handle;
    header : Types.addr;
    nbuckets : int;
    buckets : Types.addr;
    fr : F.t;
  }

  let node_meta = 24
  let off_next = 0
  let off_key = 8
  let off_len = 16

  (* splitmix-style finalizer as the bucket hash *)
  let hash key nbuckets =
    let z = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int nbuckets))

  let attach ?(opts = Ds_intf.default_options) ?(nbuckets = 4096) s ~name =
    let fr = F.attach ~opts s ~name in
    let h = fr.F.h in
    let header = S.read_u64 ~hint:`Hot s h.Types.root in
    if header = 0L then begin
      let header = S.malloc s 24 in
      let buckets = S.malloc s (nbuckets * 8) in
      S.write s ~ds:h.Types.id ~addr:buckets (Bytes.make (nbuckets * 8) '\000');
      let b = Bytes.create 24 in
      Bytes.set_int64_le b 0 (Int64.of_int nbuckets);
      Bytes.set_int64_le b 8 0L;
      Bytes.set_int64_le b 16 (Int64.of_int buckets);
      S.write s ~ds:h.Types.id ~addr:header b;
      S.write_u64 s ~ds:h.Types.id h.Types.root (Int64.of_int header);
      S.flush s;
      { s; h; header; nbuckets; buckets; fr }
    end
    else begin
      let header = Int64.to_int header in
      let b = S.read ~hint:`Hot s ~addr:header ~len:24 in
      let nbuckets = Int64.to_int (Bytes.get_int64_le b 0) in
      let buckets = Int64.to_int (Bytes.get_int64_le b 16) in
      { s; h; header; nbuckets; buckets; fr }
    end

  let handle t = t.h
  let bucket_addr t key = t.buckets + (8 * hash key t.nbuckets)

  (* Walk the chain of [key]'s bucket. Returns the address of the pointer
     word referencing the matching node (the bucket word or a node's next
     field) together with the node address, or [None]. *)
  let find_slot t key =
    let rec walk link_addr =
      let node = S.read_u64 ~hint:`Hot t.s link_addr in
      if node = 0L then None
      else begin
        let node = Int64.to_int node in
        let k = S.read_u64 ~hint:`Hot t.s (node + off_key) in
        if k = key then Some (link_addr, node) else walk (node + off_next)
      end
    in
    walk (bucket_addr t key)

  let node_len t node =
    Int64.to_int (S.read_u64 ~hint:`Hot t.s (node + off_len))

  let adjust_count t ~ds delta =
    let c = S.read_u64 ~hint:`Hot t.s (t.header + 8) in
    S.write_u64 t.s ~ds (t.header + 8) (Int64.add c (Int64.of_int delta))

  let put t ~key ~value =
    F.mutate t.fr ~optype:op_put ~params:(Params.of_kv key value) (fun ds ->
        let len = Bytes.length value in
        let make_node next =
          let node = S.malloc t.s (node_meta + len) in
          let b = Bytes.create (node_meta + len) in
          Bytes.set_int64_le b off_next next;
          Bytes.set_int64_le b off_key key;
          Bytes.set_int64_le b off_len (Int64.of_int len);
          Bytes.blit value 0 b node_meta len;
          S.write t.s ~ds ~addr:node b;
          node
        in
        (match find_slot t key with
        | Some (link_addr, old_node) ->
            (* Replace: new node takes over the old node's successor. *)
            let next = S.read_u64 ~hint:`Hot t.s (old_node + off_next) in
            let old_len = node_len t old_node in
            let node = make_node next in
            S.write_u64 t.s ~ds link_addr (Int64.of_int node);
            F.free_after_op t.fr old_node ~len:(node_meta + old_len)
        | None ->
            let bucket = bucket_addr t key in
            let head = S.read_u64 ~hint:`Hot t.s bucket in
            let node = make_node head in
            S.write_u64 t.s ~ds bucket (Int64.of_int node);
            adjust_count t ~ds 1))

  let get t ~key =
    F.read t.fr (fun () ->
        match find_slot t key with
        | None -> None
        | Some (_, node) ->
            let len = node_len t node in
            Some (S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len))

  let delete t ~key =
    F.mutate t.fr ~optype:op_delete ~params:(Params.of_key key) (fun ds ->
        match find_slot t key with
        | None -> false
        | Some (link_addr, node) ->
            let next = S.read_u64 ~hint:`Hot t.s (node + off_next) in
            let len = node_len t node in
            S.write_u64 t.s ~ds link_addr next;
            adjust_count t ~ds (-1);
            F.free_after_op t.fr node ~len:(node_meta + len);
            true)

  let mem t ~key = match get t ~key with Some _ -> true | None -> false
  let size t = Int64.to_int (S.read_u64 ~hint:`Hot t.s (t.header + 8))

  let iter t f =
    for i = 0 to t.nbuckets - 1 do
      let rec walk ptr =
        if ptr <> 0L then begin
          let node = Int64.to_int ptr in
          let next = S.read_u64 ~hint:`Hot t.s (node + off_next) in
          let key = S.read_u64 ~hint:`Hot t.s (node + off_key) in
          let len = node_len t node in
          f key (S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len);
          walk next
        end
      in
      walk (S.read_u64 ~hint:`Hot t.s (t.buckets + (8 * i)))
    done

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | 0 -> ()
    | other -> Fmt.invalid_arg "Phash.replay: unknown optype %d" other
end
