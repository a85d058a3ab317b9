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

(* The stored frame: header (tag 1, ds 4, op_hi 8, count 4), the entries,
   then the commit tag (1) and the CRC (4) of everything before it. An
   entry is flag (1), for a pointer entry the op number (8), addr (8),
   value length (4) and the value. *)
let header_len = 17
let trailer_len = 5

module Frame = struct
  (* [buf] holds closed frames, each with its trailer space reserved, then
     the open frame's header and entries up to [len]. [starts] lists every
     frame's offset, the open one last; a closed frame already carries its
     count and commit tag. [seal] writes what depends on the flush. *)
  type t = {
    mutable buf : bytes;
    mutable len : int;
    mutable starts : int array;
    mutable n : int;  (* frames, the last one open; 0 when empty *)
    mutable ds : Types.ds_id;  (* the open frame's structure *)
    mutable count : int;  (* the open frame's entries *)
    mutable wire : int;
  }

  let create () =
    { buf = Bytes.empty; len = 0; starts = Array.make 4 0; n = 0; ds = 0; count = 0; wire = 0 }

  let is_empty t = t.n = 0
  let buffer t = t.buf
  let length t = if t.n = 0 then header_len + trailer_len else t.len + trailer_len
  let wire t = if t.n = 0 then header_len + trailer_len else t.wire

  let reset t =
    t.len <- 0;
    t.n <- 0;
    t.count <- 0;
    t.wire <- 0

  let reserve t n =
    if t.len + n > Bytes.length t.buf then begin
      let b = Bytes.create (Int.max (t.len + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end

  let header t ~at ~ds ~count =
    Bytes.set_uint8 t.buf at tag_tx;
    Bytes.set_int32_le t.buf (at + 1) (Int32.of_int ds);
    Bytes.set_int32_le t.buf (at + 13) (Int32.of_int count)

  (* The open frame's count and commit tag; [len] stays before the tag. *)
  let mark_end t =
    Bytes.set_int32_le t.buf (t.starts.(t.n - 1) + 13) (Int32.of_int t.count);
    Bytes.set_uint8 t.buf t.len tag_commit

  let open_frame t ~ds =
    if t.n = Array.length t.starts then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.starts 0 a 0 t.n;
      t.starts <- a
    end;
    t.starts.(t.n) <- t.len;
    t.n <- t.n + 1;
    t.ds <- ds;
    t.count <- 0;
    header t ~at:t.len ~ds ~count:0;
    t.len <- t.len + header_len;
    t.wire <- t.wire + header_len + trailer_len

  let append t ~ds ?from_op ~addr value =
    let vlen = Bytes.length value in
    (* Room to close the open frame, open the next, and hold the longest
       entry header, the value and the trailer. *)
    reserve t (trailer_len + header_len + 21 + vlen + trailer_len);
    if t.n = 0 then open_frame t ~ds
    else if ds <> t.ds then begin
      mark_end t;
      t.len <- t.len + trailer_len;
      open_frame t ~ds
    end;
    let p = t.len in
    let q =
      match from_op with
      | Some opn ->
          Bytes.set_uint8 t.buf p flag_op_pointer;
          Bytes.set_int64_le t.buf (p + 1) opn;
          (* The wire ships a 12-byte pointer (op number + offset) in
             place of a value the op log already holds. *)
          t.wire <- t.wire + 13 + Int.min 12 vlen;
          p + 9
      | None ->
          Bytes.set_uint8 t.buf p flag_inline;
          t.wire <- t.wire + 13 + vlen;
          p + 1
    in
    Bytes.set_int64_le t.buf q (Int64.of_int addr);
    Bytes.set_int32_le t.buf (q + 8) (Int32.of_int vlen);
    Bytes.blit value 0 t.buf (q + 12) vlen;
    t.len <- q + 12 + vlen;
    t.count <- t.count + 1

  let seal_frame t ~start ~stop ~op_hi =
    Bytes.set_int64_le t.buf (start + 5) op_hi;
    Bytes.set_int32_le t.buf (stop - 4) (Crc32.digest t.buf ~pos:start ~len:(stop - 4 - start));
    if Asym_obs.enabled () then begin
      Asym_obs.Registry.inc "log.tx_encoded";
      Asym_obs.Registry.add "log.tx_encoded_bytes" (stop - start)
    end

  (* Nothing here moves [len] or [n], so a seal can be redone. *)
  let seal ?(ds = 0) t ~op_hi =
    if t.n = 0 then begin
      reserve t (header_len + trailer_len);
      header t ~at:0 ~ds ~count:0;
      Bytes.set_uint8 t.buf header_len tag_commit;
      seal_frame t ~start:0 ~stop:(header_len + trailer_len) ~op_hi
    end
    else begin
      mark_end t;
      for i = 0 to t.n - 1 do
        let stop = if i = t.n - 1 then t.len + trailer_len else t.starts.(i + 1) in
        seal_frame t ~start:t.starts.(i) ~stop ~op_hi
      done
    end
end

module Tx = struct
  type t = { ds : Types.ds_id; op_hi : int64; entries : Mem_entry.t list }

  let frame t =
    let w = Frame.create () in
    List.iter
      (fun { Mem_entry.addr; value; from_op } -> Frame.append w ~ds:t.ds ?from_op ~addr value)
      t.entries;
    Frame.seal ~ds:t.ds w ~op_hi:t.op_hi;
    w

  let encode t =
    let w = frame t in
    Bytes.sub (Frame.buffer w) 0 (Frame.length w)

  let wire_size t = Frame.wire (frame t)

  type view = { ds : Types.ds_id; op_hi : int64; count : int; at : int }

  (* The one reader of the entry layout: flag (1), for a pointer entry
     the op number (8), addr (8), value length (4), value. Calls [f] on
     each of [count] entries of the frame at [at] and returns the end of
     the last; [Exit] when one is malformed or runs past [lim]. *)
  let walk_entries buf ~at ~count ~lim f =
    let p = ref (at + header_len) in
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
        let stop = walk_entries buf ~at:pos ~count ~lim (fun ~addr:_ ~pos:_ ~len:_ -> ()) in
        Codec.Dec.skip d (stop - Codec.Dec.pos d);
        if Codec.Dec.u8 d <> tag_commit then raise Exit;
        { ds; op_hi; count; at = pos })

  (* [scan] has checked every entry this walks. *)
  let iter_entries buf v f =
    ignore (walk_entries buf ~at:v.at ~count:v.count ~lim:(Bytes.length buf) f)
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

(* -- the ring walk ---------------------------------------------------------- *)

(* An op-log record is a few dozen bytes, so one window holds many; a
   memory-log frame larger than a window grows it. *)
let walk_window = 4096

type walk_end = { head : int; torn : bool; lap_end : int }

(* [buf] holds the ring's [len] bytes from [base]; [off] is the next
   frame's offset in it. A frame that runs past the window is re-read
   from its start, the window growing while the frame alone overruns it. *)
let walk ~(scan : ?lim:int -> bytes -> pos:int -> 'a scan) ~read ~cap ~from f =
  let lap_end = ref cap in
  let stop head torn = { head; torn; lap_end = !lap_end } in
  let rec fill pos walked len =
    let len = min len (cap - pos) in
    decode (read ~pos ~len) pos len 0 walked
  and decode buf base len off walked =
    let pos = base + off in
    if walked >= cap then stop pos false
    else
      match scan ~lim:len buf ~pos:off with
      | Record (x, n) ->
          f x ~pos ~len:n;
          decode buf base len (off + n) (walked + n)
      | Wrap ->
          lap_end := pos + Bytes.length wrap_marker;
          fill 0 (walked + cap - pos) walk_window
      | Empty when off < len || pos >= cap -> stop pos false
      | Empty -> fill pos walked walk_window
      | Torn when base + len < cap -> fill pos walked (if off = 0 then len * 4 else walk_window)
      | Torn -> stop pos true
  in
  fill from 0 walk_window
