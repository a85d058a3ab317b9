open Asym_util

(* Framing bytes. A zeroed ring byte (0x00) means "nothing written here",
   so every real frame starts with a distinctive tag. *)
let tag_tx = 0xB5
let tag_op = 0xA7
let tag_wrap = 0xFF
let tag_commit = 0xC3
let flag_inline = 0x01
let flag_op_pointer = 0x02

(* Test-only fault: when cleared, [scan] accepts records whose checksum
   does not match, i.e. torn-write detection is broken. lib/check uses it
   to prove the crash-point sweep can fail. *)
let crc_check = ref true

type 'a scan = Record of 'a * int | Torn | Wrap | Empty

(* One frame of either ring at [pos]: the tag byte, the body [decode]
   reads, then the CRC32 of both. Bytes from [lim] on are stale and never
   looked at. *)
let scan_frame ~tag ?lim buf ~pos decode =
  let lim = match lim with Some l -> min l (Bytes.length buf) | None -> Bytes.length buf in
  if pos >= lim then Empty
  else
    match Bytes.get_uint8 buf pos with
    | 0x00 -> Empty
    | b when b = tag_wrap -> Wrap
    | b when b <> tag -> Torn
    | _ -> (
        try
          let d = Codec.Dec.of_bytes ~pos:(pos + 1) ~lim buf in
          let v = decode d ~lim in
          let body_len = Codec.Dec.pos d - pos in
          let crc = Codec.Dec.u32 d in
          if !crc_check && crc <> Crc32.digest buf ~pos ~len:body_len then Torn
          else Record (v, Codec.Dec.pos d - pos)
        with Exit | Invalid_argument _ -> Torn)

let wrap_marker = Bytes.make 1 (Char.chr tag_wrap)

module Mem_entry = struct
  type t = { addr : Types.addr; value : bytes; from_op : int64 option }

  let make ?from_op ~addr value = { addr; value; from_op }
end

module Tx = struct
  type t = { ds : Types.ds_id; op_hi : int64; entries : Mem_entry.t list }

  (* Stored size. Header (1+4+8+4) + per entry (1+8+4 + payload, plus 8
     for the op number of a pointer entry) + commit (1) + crc (4). *)
  let size t =
    let entry_size { Mem_entry.value; from_op; _ } =
      13 + Bytes.length value + if from_op = None then 0 else 8
    in
    17 + List.fold_left (fun acc en -> acc + entry_size en) 0 t.entries + 5

  (* Encoded in place: the body, then its CRC, with no intermediate copy. *)
  let encode_into t buf ~pos =
    let e = Codec.Enc.into buf ~pos in
    Codec.Enc.u8 e tag_tx;
    Codec.Enc.u32i e t.ds;
    Codec.Enc.u64 e t.op_hi;
    Codec.Enc.u32i e (List.length t.entries);
    List.iter
      (fun { Mem_entry.addr; value; from_op } ->
        (* A pointer entry must carry the op number it points at — the
           old encoding dropped it and [scan] fabricated [Some 0L]. *)
        (match from_op with
        | Some opn ->
            Codec.Enc.u8 e flag_op_pointer;
            Codec.Enc.u64 e opn
        | None -> Codec.Enc.u8 e flag_inline);
        Codec.Enc.u64i e addr;
        Codec.Enc.u32i e (Bytes.length value);
        Codec.Enc.bytes e value)
      t.entries;
    Codec.Enc.u8 e tag_commit;
    Codec.Enc.u32 e (Crc32.digest buf ~pos ~len:(Codec.Enc.length e - pos));
    let n = Codec.Enc.length e - pos in
    if Asym_obs.enabled () then begin
      Asym_obs.Registry.inc "log.tx_encoded";
      Asym_obs.Registry.add "log.tx_encoded_bytes" n
    end;
    n

  let encode t =
    let b = Bytes.create (size t) in
    ignore (encode_into t b ~pos:0);
    b

  (* Wire cost, not stored size. Header (1+4+8+4) + per entry (1+8+4 +
     payload) + commit (1) + crc (4). An entry whose value is already
     durable in the operation log ships a 12-byte pointer (op number +
     offset) instead of the value — the stored frame additionally spends
     8 bytes on the op number, but the wire charges only the pointer. *)
  let wire_size t =
    let entry_payload { Mem_entry.value; from_op; _ } =
      match from_op with
      | Some _ -> min 12 (Bytes.length value)
      | None -> Bytes.length value
    in
    17
    + List.fold_left (fun acc en -> acc + 13 + entry_payload en) 0 t.entries
    + 5

  type view = { ds : Types.ds_id; op_hi : int64; count : int; first : int }

  (* The one reader of the entry layout: flag (1), for a pointer entry
     the op number (8), addr (8), value length (4), value. Calls [f] on
     each of [count] entries from [first] and returns the end of the last;
     [Exit] when one is malformed or runs past [lim]. *)
  let walk_entries buf ~first ~count ~lim f =
    let p = ref first in
    for _ = 1 to count do
      if !p >= lim then raise Exit;
      let flag = Bytes.get_uint8 buf !p in
      let q =
        if flag = flag_inline then !p + 1
        else if flag = flag_op_pointer then !p + 9
        else raise Exit
      in
      if q + 12 > lim then raise Exit;
      let addr = Bytes.get_int64_le buf q in
      if addr < 0L || addr > Int64.of_int max_int then raise Exit;
      let pos = q + 12 in
      let len = Int32.to_int (Bytes.get_int32_le buf (q + 8)) land 0xFFFFFFFF in
      if len > lim - pos then raise Exit;
      f ~addr:(Int64.to_int addr) ~pos ~len;
      p := pos + len
    done;
    !p

  (* Checks every entry header and skips its value: nothing is copied. *)
  let scan ?lim buf ~pos =
    scan_frame ~tag:tag_tx ?lim buf ~pos (fun d ~lim ->
        let ds = Codec.Dec.u32i d in
        let op_hi = Codec.Dec.u64 d in
        let count = Codec.Dec.u32i d in
        if count > 1_000_000 then raise Exit;
        let first = Codec.Dec.pos d in
        let stop = walk_entries buf ~first ~count ~lim (fun ~addr:_ ~pos:_ ~len:_ -> ()) in
        Codec.Dec.skip d (stop - first);
        if Codec.Dec.u8 d <> tag_commit then raise Exit;
        { ds; op_hi; count; first })

  (* [scan] has checked every entry this walks. *)
  let iter_entries buf v f =
    ignore (walk_entries buf ~first:v.first ~count:v.count ~lim:(Bytes.length buf) f)
end

module Op_entry = struct
  type t = { ds : Types.ds_id; opnum : int64; optype : int; params : bytes }

  (* Encoded in place: tag (1) + ds (4) + opnum (8) + type (1) + length
     (4) + params, then the crc (4) of all of it. *)
  let encode t =
    let raw = Bytes.create (22 + Bytes.length t.params) in
    let e = Codec.Enc.into raw ~pos:0 in
    Codec.Enc.u8 e tag_op;
    Codec.Enc.u32i e t.ds;
    Codec.Enc.u64 e t.opnum;
    Codec.Enc.u8 e t.optype;
    Codec.Enc.u32i e (Bytes.length t.params);
    Codec.Enc.bytes e t.params;
    Codec.Enc.u32 e (Crc32.digest raw ~pos:0 ~len:(Codec.Enc.length e));
    if Asym_obs.enabled () then begin
      Asym_obs.Registry.inc "log.op_encoded";
      Asym_obs.Registry.add "log.op_encoded_bytes" (Bytes.length raw)
    end;
    raw

  let scan ?lim buf ~pos =
    scan_frame ~tag:tag_op ?lim buf ~pos (fun d ~lim ->
        let ds = Codec.Dec.u32i d in
        let opnum = Codec.Dec.u64 d in
        let optype = Codec.Dec.u8 d in
        let len = Codec.Dec.u32i d in
        if len > lim then raise Exit;
        { ds; opnum; optype; params = Codec.Dec.bytes d len })
end

(* -- the lock-ahead log (§6.1) -------------------------------------------- *)

(* Operation-log record types >= 250 are framework-internal; data-structure
   operations use 0..249. *)
let optype_lock_acquire = 254
let optype_lock_release = 253
let internal_optype ty = ty >= 250

let lock_record ~acquire ~opnum addr =
  let params = Bytes.create 8 in
  Bytes.set_int64_le params 0 (Int64.of_int addr);
  let optype = if acquire then optype_lock_acquire else optype_lock_release in
  { Op_entry.ds = 0; opnum; optype; params }

let track_lock held (op : Op_entry.t) =
  let ty = op.optype in
  if ty <> optype_lock_acquire && ty <> optype_lock_release then held
  else
    let addr = Int64.to_int (Bytes.get_int64_le op.params 0) in
    let others = List.filter (fun a -> a <> addr) held in
    if ty = optype_lock_acquire then addr :: others else others

(* -- the op-log walk ------------------------------------------------------- *)

(* An op-log record is a few dozen bytes, so one window holds many. *)
let walk_window = 4096

(* [buf] holds the ring's [len] bytes from [base]; [off] is the next
   record's offset in it. A frame that runs past the window is re-read
   from its start, the window growing while the frame alone overruns it. *)
let walk_ops ~read ~cap ~tail f =
  let rec fill pos walked len =
    let len = min len (cap - pos) in
    decode (read ~pos ~len) pos len 0 walked
  and decode buf base len off walked =
    let pos = base + off in
    if walked >= cap then pos
    else
      match Op_entry.scan buf ~pos:off ~lim:len with
      | Record (op, n) ->
          f op ~pos ~len:n;
          decode buf base len (off + n) (walked + n)
      | Wrap -> fill 0 (walked + cap - pos) walk_window
      | Empty when off < len || pos >= cap -> pos
      | Empty -> fill pos walked walk_window
      | Torn when base + len < cap -> fill pos walked (if off = 0 then len * 4 else walk_window)
      | Torn -> pos
  in
  fill tail 0 walk_window
