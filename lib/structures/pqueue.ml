(** Persistent FIFO queue (§8.1).

    Layout: the root word points at a 24-byte header [{head; tail; count}];
    nodes are [[next: u64][len: u32][pad: u32][value bytes]]. Enqueues
    append at the tail, dequeues consume from the head; both ends are the
    only hot data, so a tiny cache suffices. *)

open Asym_core

let op_enqueue = 1
let op_dequeue = 2

module Make (S : Store.S) = struct
  module F = Ds_intf.Frame (S)

  type t = { s : S.t; h : Types.handle; header : Types.addr; fr : F.t }

  let node_meta = 16
  let off_head = 0
  let off_tail = 8
  let off_count = 16

  let attach ?(opts = Ds_intf.default_options) s ~name =
    let fr = F.attach ~opts s ~name in
    let h = fr.F.h in
    let header = S.read_u64 ~hint:`Hot s h.Types.root in
    if header = 0L then begin
      let header = S.malloc s 24 in
      S.write s ~ds:h.Types.id ~addr:header (Bytes.make 24 '\000');
      S.write_u64 s ~ds:h.Types.id h.Types.root (Int64.of_int header);
      S.flush s;
      { s; h; header; fr }
    end
    else { s; h; header = Int64.to_int header; fr }

  let handle t = t.h

  let enqueue t value =
    F.mutate t.fr ~optype:op_enqueue ~params:value (fun ds ->
        let len = Bytes.length value in
        let node = S.malloc t.s (node_meta + len) in
        let b = Bytes.create (node_meta + len) in
        Bytes.set_int64_le b 0 0L;
        Bytes.set_int32_le b 8 (Int32.of_int len);
        Bytes.set_int32_le b 12 0l;
        Bytes.blit value 0 b node_meta len;
        S.write t.s ~ds ~addr:node b;
        let tail = S.read_u64 ~hint:`Hot t.s (t.header + off_tail) in
        if tail = 0L then begin
          S.write_u64 t.s ~ds (t.header + off_head) (Int64.of_int node);
          S.write_u64 t.s ~ds (t.header + off_tail) (Int64.of_int node)
        end
        else begin
          (* Link the old tail to the new node. *)
          S.write_u64 t.s ~ds (Int64.to_int tail) (Int64.of_int node);
          S.write_u64 t.s ~ds (t.header + off_tail) (Int64.of_int node)
        end;
        let count = S.read_u64 ~hint:`Hot t.s (t.header + off_count) in
        S.write_u64 t.s ~ds (t.header + off_count) (Int64.add count 1L))

  let dequeue t =
    F.mutate t.fr ~optype:op_dequeue ~params:Bytes.empty (fun ds ->
        let head = S.read_u64 ~hint:`Hot t.s (t.header + off_head) in
        if head = 0L then None
        else begin
          let node = Int64.to_int head in
          let meta = S.read ~hint:`Hot t.s ~addr:node ~len:node_meta in
          let next = Bytes.get_int64_le meta 0 in
          let len = Int32.to_int (Bytes.get_int32_le meta 8) in
          let value = S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len in
          S.write_u64 t.s ~ds (t.header + off_head) next;
          if next = 0L then S.write_u64 t.s ~ds (t.header + off_tail) 0L;
          let count = S.read_u64 ~hint:`Hot t.s (t.header + off_count) in
          S.write_u64 t.s ~ds (t.header + off_count) (Int64.sub count 1L);
          F.free_after_op t.fr node ~len:(node_meta + len);
          Some value
        end)

  let peek t =
    F.read t.fr (fun () ->
        let head = S.read_u64 ~hint:`Hot t.s (t.header + off_head) in
        if head = 0L then None
        else begin
          let node = Int64.to_int head in
          let meta = S.read ~hint:`Hot t.s ~addr:node ~len:node_meta in
          let len = Int32.to_int (Bytes.get_int32_le meta 8) in
          Some (S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len)
        end)

  let size t = Int64.to_int (S.read_u64 ~hint:`Hot t.s (t.header + off_count))

  let to_list t =
    let rec walk acc ptr =
      if ptr = 0L then List.rev acc
      else begin
        let node = Int64.to_int ptr in
        let meta = S.read ~hint:`Hot t.s ~addr:node ~len:node_meta in
        let next = Bytes.get_int64_le meta 0 in
        let len = Int32.to_int (Bytes.get_int32_le meta 8) in
        let v = S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len in
        walk (v :: acc) next
      end
    in
    walk [] (S.read_u64 ~hint:`Hot t.s (t.header + off_head))

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_enqueue -> enqueue t op.Log.Op_entry.params
    | x when x = op_dequeue -> ignore (dequeue t)
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pqueue.replay: unknown optype %d" other
end
