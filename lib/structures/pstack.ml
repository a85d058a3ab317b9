(** Persistent stack (§8.1).

    Layout: the root word points at a 16-byte header [{top; count}]; each
    node is [[next: u64][len: u32][pad: u32][value bytes]]. Only the top of
    the stack is ever touched, so the front-end effectively caches just the
    head nodes; pops that follow unflushed pushes are served entirely from
    the write overlay — the paper's push/pop annulment effect. *)

open Asym_core

let op_push = 1
let op_pop = 2

module Make (S : Store.S) = struct
  module F = Ds_intf.Frame (S)

  type t = { s : S.t; h : Types.handle; header : Types.addr; fr : F.t }

  let node_meta = 16

  let attach ?(opts = Ds_intf.default_options) s ~name =
    let fr = F.attach ~opts s ~name in
    let h = fr.F.h in
    let header = S.read_u64 ~hint:`Hot s h.Types.root in
    if header = 0L then begin
      let header = S.malloc s 16 in
      S.write s ~ds:h.Types.id ~addr:header (Bytes.make 16 '\000');
      S.write_u64 s ~ds:h.Types.id h.Types.root (Int64.of_int header);
      S.flush s;
      { s; h; header; fr }
    end
    else { s; h; header = Int64.to_int header; fr }

  let handle t = t.h

  let push t value =
    F.mutate t.fr ~optype:op_push ~params:value (fun ds ->
        let len = Bytes.length value in
        let node = S.malloc t.s (node_meta + len) in
        let top = S.read_u64 ~hint:`Hot t.s t.header in
        let b = Bytes.create (node_meta + len) in
        Bytes.set_int64_le b 0 top;
        Bytes.set_int32_le b 8 (Int32.of_int len);
        Bytes.set_int32_le b 12 0l;
        Bytes.blit value 0 b node_meta len;
        S.write t.s ~ds ~addr:node b;
        S.write_u64 t.s ~ds t.header (Int64.of_int node);
        let count = S.read_u64 ~hint:`Hot t.s (t.header + 8) in
        S.write_u64 t.s ~ds (t.header + 8) (Int64.add count 1L))

  let pop t =
    F.mutate t.fr ~optype:op_pop ~params:Bytes.empty (fun ds ->
        let top = S.read_u64 ~hint:`Hot t.s t.header in
        if top = 0L then None
        else begin
          let node = Int64.to_int top in
          let meta = S.read ~hint:`Hot t.s ~addr:node ~len:node_meta in
          let next = Bytes.get_int64_le meta 0 in
          let len = Int32.to_int (Bytes.get_int32_le meta 8) in
          let value = S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len in
          S.write_u64 t.s ~ds t.header next;
          let count = S.read_u64 ~hint:`Hot t.s (t.header + 8) in
          S.write_u64 t.s ~ds (t.header + 8) (Int64.sub count 1L);
          F.free_after_op t.fr node ~len:(node_meta + len);
          Some value
        end)

  let peek t =
    F.read t.fr (fun () ->
        let top = S.read_u64 ~hint:`Hot t.s t.header in
        if top = 0L then None
        else begin
          let node = Int64.to_int top in
          let meta = S.read ~hint:`Hot t.s ~addr:node ~len:node_meta in
          let len = Int32.to_int (Bytes.get_int32_le meta 8) in
          Some (S.read ~hint:`Hot t.s ~addr:(node + node_meta) ~len)
        end)

  let size t = Int64.to_int (S.read_u64 ~hint:`Hot t.s (t.header + 8))

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
    walk [] (S.read_u64 ~hint:`Hot t.s t.header)

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_push -> push t op.Log.Op_entry.params
    | x when x = op_pop -> ignore (pop t)
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pstack.replay: unknown optype %d" other
end
