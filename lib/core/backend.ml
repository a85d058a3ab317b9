open Asym_sim
open Asym_nvm
open Asym_rdma

type ds_record = {
  ds : Types.ds_id;
  ds_name : string;
  root : Types.addr;
  lock : Types.addr;
  sn : Types.addr;
}

type session = {
  sid : Types.session_id;
  mutable lpn : int;  (* ring-relative replay cursor, persisted *)
  mutable opn_covered : int64;  (* persisted *)
  mutable oplog_tail : int;  (* ring-relative GC cursor, persisted *)
}

type session_status = Session_consistent | Session_torn_tail

type t = {
  bname : string;
  dev : Device.t;
  lat : Latency.t;
  nic_tl : Timeline.t;
  cpu_tl : Timeline.t;
  mutable layout : Layout.t;
  mutable naming : Naming.t;
  mutable alloc : Backend_alloc.t;
  mutable meta_cursor : int;
  sessions : session option array;
  ds_by_id : (Types.ds_id, ds_record) Hashtbl.t;
  ds_by_name : (string, ds_record) Hashtbl.t;
  mutable mirror_list : Mirror.t list;
  mutable next_ds : int;
  mutable crashed : bool;
  mutable n_rpcs : int;
  mutable n_replayed_txs : int;
  mutable n_replayed_entries : int;
  mutable n_dup_replays : int;
  mutable scan_buf : bytes;  (* the scans' window onto a log ring, reused *)
}

let rpc_base_ns = 400

let name t = t.bname
let device t = t.dev
let nic t = t.nic_tl
let cpu t = t.cpu_tl
let latency t = t.lat
let layout t = t.layout
let mirrors t = t.mirror_list
let replayed_txs t = t.n_replayed_txs
let replayed_entries t = t.n_replayed_entries
let dup_replays_absorbed t = t.n_dup_replays
let rpcs_served t = t.n_rpcs
let used_slabs t = Backend_alloc.used_slabs t.alloc

let check_alive t = if t.crashed then raise (Verbs.Failure_detected t.bname)

(* -- persistence helpers ---------------------------------------------- *)

(* Replicate a write to all mirrors, charging the back-end NIC. *)
let repl t ~at ~addr ?len b =
  List.iter (fun m -> Mirror.replicate m ~from_nic:t.nic_tl ~at ~addr ?len b) t.mirror_list

(* Functional-only mirror update for bytes that travel piggybacked inside
   an already-charged replica message (e.g. data-area entries contained in
   a forwarded transaction log). *)
let repl_uncharged t ~addr ~pos ~len b =
  List.iter (fun m -> Device.write (Mirror.device m) ~addr ~pos ~len b) t.mirror_list

let write_word t addr v =
  Device.write_u64 t.dev ~addr v;
  List.iter (fun m -> Device.write_u64 (Mirror.device m) ~addr v) t.mirror_list

let zero_uncharged t ~addr ~len =
  List.iter (fun m -> Device.zero (Mirror.device m) ~addr ~len) t.mirror_list

(* -- session slots ------------------------------------------------------ *)

let persist_session t s =
  let base = Layout.session_slot t.layout ~session:s.sid in
  write_word t (base + Layout.slot_lpn) (Int64.of_int s.lpn);
  write_word t (base + Layout.slot_opn) s.opn_covered;
  write_word t (base + Layout.slot_tail) (Int64.of_int s.oplog_tail)

let load_session t sid =
  let base = Layout.session_slot t.layout ~session:sid in
  let inuse = Device.read_u64 t.dev ~addr:(base + Layout.slot_inuse) in
  if inuse = 0L then None
  else
    Some
      {
        sid;
        lpn = Int64.to_int (Device.read_u64 t.dev ~addr:(base + Layout.slot_lpn));
        opn_covered = Device.read_u64 t.dev ~addr:(base + Layout.slot_opn);
        oplog_tail = Int64.to_int (Device.read_u64 t.dev ~addr:(base + Layout.slot_tail));
      }

let get_session t sid =
  match t.sessions.(sid) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Backend %s: no such session %d" t.bname sid)

(* -- construction ------------------------------------------------------- *)

(* A back-end with no open session and an empty ds registry over [dev],
   whose [layout], naming space and allocator are already on the media. *)
let make ~name dev lat layout ~naming ~alloc =
  {
    bname = name;
    dev;
    lat;
    nic_tl = Timeline.create ~name:(name ^ ".nic") ();
    cpu_tl = Timeline.create ~name:(name ^ ".cpu") ();
    layout;
    naming;
    alloc;
    meta_cursor = 0;
    sessions = Array.make layout.Layout.max_sessions None;
    ds_by_id = Hashtbl.create 16;
    ds_by_name = Hashtbl.create 16;
    mirror_list = [];
    next_ds = 1;
    crashed = false;
    n_rpcs = 0;
    n_replayed_txs = 0;
    n_replayed_entries = 0;
    n_dup_replays = 0;
    scan_buf = Bytes.create 16_384;
  }

let create ?(name = "backend") ?(max_sessions = 8) ?(memlog_cap = 4 * 1024 * 1024)
    ?(oplog_cap = 2 * 1024 * 1024) ?(slab_size = 4096) ~capacity lat =
  let dev = Device.create ~name:(name ^ ".nvm") ~capacity lat in
  let layout = Layout.compute ~memlog_cap ~oplog_cap ~slab_size ~capacity ~max_sessions () in
  Layout.store dev layout;
  let naming = Naming.create dev ~base:layout.Layout.naming_base ~len:layout.Layout.naming_len in
  let alloc = Backend_alloc.create dev layout in
  Device.write_u64 dev ~addr:layout.Layout.meta_base 0L;
  (* Mark all session slots unused. *)
  for i = 0 to max_sessions - 1 do
    Device.zero dev ~addr:(Layout.session_slot layout ~session:i) ~len:Layout.session_slot_len
  done;
  make ~name dev lat layout ~naming ~alloc

let attach_mirror t m =
  if Device.capacity (Mirror.device m) <> Device.capacity t.dev then
    invalid_arg "Backend.attach_mirror: capacity mismatch";
  (* Bring the mirror's image up to date with a full synchronization:
     both devices share every page until one of them writes it. *)
  Device.copy_from (Mirror.device m) ~src:t.dev;
  t.mirror_list <- m :: t.mirror_list

(* -- ds registry -------------------------------------------------------- *)

let register_ds_record t ~ds ~ds_name ~root ~lock ~sn =
  let r = { ds; ds_name; root; lock; sn } in
  Hashtbl.replace t.ds_by_id ds r;
  Hashtbl.replace t.ds_by_name ds_name r;
  r

let rebuild_ds_registry t =
  Hashtbl.reset t.ds_by_id;
  Hashtbl.reset t.ds_by_name;
  t.next_ds <- 1;
  List.iter
    (fun (key, _kind, addr) ->
      match Filename.check_suffix key "!ds" with
      | false -> ()
      | true ->
          let ds_name = Filename.chop_suffix key "!ds" in
          let ds = addr in
          let get suffix =
            match Naming.find t.naming (ds_name ^ suffix) with
            | Some (_, a) -> a
            | None -> failwith ("Backend: missing naming entry " ^ ds_name ^ suffix)
          in
          ignore (register_ds_record t ~ds ~ds_name ~root:(get "!root") ~lock:(get "!lock") ~sn:(get "!sn"));
          if ds >= t.next_ds then t.next_ds <- ds + 1)
    (Naming.to_list t.naming)

(* -- memory-log replay -------------------------------------------------- *)

(* The frame's [len] bytes are the start of [scan_buf]; each entry is
   written to the device and the mirrors straight from there. *)
let apply_tx t ~at ~ring_base ~ring_off ~len (tx : Log.Tx.view) =
  let buf = t.scan_buf in
  let entries = tx.Log.Tx.count in
  (* Cost: per-entry CPU + NVM media, plus the two sequence-number bumps. *)
  let media = ref 0 in
  Log.Tx.iter_entries buf tx (fun ~addr:_ ~pos:_ ~len ->
      media := !media + Latency.nvm_write_cost t.lat len);
  let dur =
    (t.lat.Latency.cpu_entry_ns * entries) + !media + (2 * Latency.nvm_write_cost t.lat 8)
  in
  let start = Timeline.acquire t.cpu_tl ~at ~dur in
  let stop = start + dur in
  if Asym_obs.enabled () then begin
    Asym_obs.Registry.inc "log.replayed_txs";
    Asym_obs.Registry.add "log.replayed_entries" entries;
    Asym_obs.Registry.add "log.replayed_bytes" len;
    Asym_obs.Span.complete ~cat:"log" ~track:(Timeline.name t.cpu_tl) ~ts:start ~dur
      "log.replay_tx"
  end;
  let write_entries () =
    Log.Tx.iter_entries buf tx (fun ~addr ~pos ~len ->
        Device.write t.dev ~addr ~pos ~len buf;
        repl_uncharged t ~addr ~pos ~len buf)
  in
  (match Hashtbl.find_opt t.ds_by_id tx.Log.Tx.ds with
  | Some r ->
      ignore (Device.fetch_add t.dev ~addr:r.sn 1L);
      write_entries ();
      ignore (Device.fetch_add t.dev ~addr:r.sn 1L)
  | None -> write_entries ());
  (* Forward the log record itself to the mirrors (one charged message);
     the data-area entry writes above piggyback inside it. *)
  repl t ~at:stop ~addr:(ring_base + ring_off) ~len buf;
  t.n_replayed_txs <- t.n_replayed_txs + 1;
  t.n_replayed_entries <- t.n_replayed_entries + entries;
  stop

(* Zero a consumed region of a log ring: log truncation. Keeping consumed
   and never-written ring bytes zero is what lets a post-crash scan stop at
   the first Empty byte instead of tripping over stale records from a
   previous ring lap. *)
let truncate_ring t ~ring_base ~off ~len =
  Device.zero t.dev ~addr:(ring_base + off) ~len;
  zero_uncharged t ~addr:(ring_base + off) ~len

(* Read [len] bytes of a ring at [pos] into [scan_buf], the window every
   scan of either ring decodes from. *)
let read_ring t ~ring_base ~pos ~len =
  if Bytes.length t.scan_buf < len then t.scan_buf <- Bytes.create len;
  Device.read_into t.dev ~addr:(ring_base + pos) t.scan_buf ~pos:0 ~len;
  t.scan_buf

(* Scan the transaction frame at [pos] in [scan_buf], growing the window
   while the frame runs past it: each step reads only the bytes past the
   window it already holds. Bytes past the window are stale and never
   decoded. *)
let scan_tx t ~ring_base ~cap ~pos =
  let rec go have len =
    let len = min len (cap - pos) in
    if Bytes.length t.scan_buf < len then
      t.scan_buf <- Bytes.extend t.scan_buf 0 (len - Bytes.length t.scan_buf);
    Device.read_into t.dev ~addr:(ring_base + pos + have) t.scan_buf ~pos:have ~len:(len - have);
    match Log.Tx.scan t.scan_buf ~pos:0 ~lim:len with
    | Log.Torn when len < cap - pos -> go len (len * 4)
    | r -> r
  in
  go 0 16_384

(* Op-log truncation, with the memory log's discipline: move the tail
   past covered records and zero them, so a later walk ends at the first
   zero byte. The tail stops at the first uncovered record, and only ever
   rests where every lock acquired since the old tail is released: an
   acquire record is how recovery finds a lock a crashed holder left set,
   even when the holder's operation was flushed inside the lock. The new
   tail is persisted before its records are zeroed. *)
let gc_oplog t s =
  let ring_base, cap = Layout.oplog_region t.layout ~session:s.sid in
  let held = ref [] in
  let covered = ref true in
  let tail = ref s.oplog_tail in
  ignore
    (Log.walk_ops ~read:(read_ring t ~ring_base) ~cap ~tail:s.oplog_tail (fun op ~pos ~len ->
         if !covered && Int64.compare op.Log.Op_entry.opnum s.opn_covered <= 0 then begin
           held := Log.track_lock !held op;
           if !held = [] then tail := pos + len
         end
         else covered := false));
  let from = s.oplog_tail in
  if !tail <> from then begin
    s.oplog_tail <- !tail;
    persist_session t s;
    if !tail > from then truncate_ring t ~ring_base ~off:from ~len:(!tail - from)
    else begin
      (* The walk wrapped: the old tail's lap ends at the ring's end. *)
      truncate_ring t ~ring_base ~off:from ~len:(cap - from);
      if !tail > 0 then truncate_ring t ~ring_base ~off:0 ~len:!tail
    end
  end

(* Replay every complete transaction sitting past the session's LPN, until
   the scan hits the zeroed frontier (Empty) or a torn record. Consumed
   bytes are zeroed; LPN/OPN are persisted. Returns [true] on a torn tail. *)
let replay_pending t ~at s =
  let ring_base, cap = Layout.memlog_region t.layout ~session:s.sid in
  let time = ref at in
  let torn = ref false in
  let continue_ = ref true in
  while !continue_ do
    let pos = s.lpn in
    match scan_tx t ~ring_base ~cap ~pos with
    | Log.Record (tx, consumed) ->
        (* Dedup check: a frame at or below the covered OPN is a
           retransmission of an already-applied transaction (a client
           retry after a lost ack, or a re-drain racing a reconnect).
           Absorbing it is safe — entries are absolute-address redo
           records, so re-applying is idempotent — but it must never
           move the covered OPN backwards. *)
        let covered_before = s.opn_covered in
        if tx.Log.Tx.count > 0 && Int64.compare tx.Log.Tx.op_hi covered_before <= 0 then begin
          t.n_dup_replays <- t.n_dup_replays + 1;
          if Asym_obs.enabled () then Asym_obs.Registry.inc "log.dup_replays"
        end;
        time := apply_tx t ~at:!time ~ring_base ~ring_off:pos ~len:consumed tx;
        if Int64.compare tx.Log.Tx.op_hi s.opn_covered > 0 then
          s.opn_covered <- tx.Log.Tx.op_hi;
        assert (Int64.compare s.opn_covered covered_before >= 0);
        truncate_ring t ~ring_base ~off:pos ~len:consumed;
        s.lpn <- (pos + consumed) mod cap
    | Log.Wrap ->
        truncate_ring t ~ring_base ~off:pos ~len:1;
        s.lpn <- 0
    | Log.Empty -> continue_ := false
    | Log.Torn ->
        torn := true;
        Asym_obs.Span.instant ~cat:"fault" ~track:t.bname ~ts:!time "log.torn_tail";
        continue_ := false
  done;
  persist_session t s;
  gc_oplog t s;
  !torn

let drain_session t ~session ~arrival =
  check_alive t;
  let s = get_session t session in
  ignore (replay_pending t ~at:arrival s)

let replicate_raw t ~at ~addr b = repl t ~at ~addr b

(* -- sequence numbers ------------------------------------------------------------ *)

let seqno t ~ds =
  match Hashtbl.find_opt t.ds_by_id ds with
  | Some r -> Device.read_u64 t.dev ~addr:r.sn
  | None -> 0L

(* -- ring regions -------------------------------------------------------- *)

let memlog_ring t ~session = Layout.memlog_region t.layout ~session
let oplog_ring t ~session = Layout.oplog_region t.layout ~session

(* -- crash and restart --------------------------------------------------- *)

let crash ?torn_keep t =
  (match torn_keep with Some keep -> Device.tear_last_write t.dev ~keep | None -> ());
  t.crashed <- true;
  Asym_obs.Span.instant ~cat:"fault" ~track:t.bname "backend.crash"

let restart t =
  Asym_obs.Span.instant ~cat:"fault" ~track:t.bname "backend.restart";
  Device.crash_restart t.dev;
  t.layout <- Layout.load t.dev;
  t.naming <- Naming.load t.dev ~base:t.layout.Layout.naming_base ~len:t.layout.Layout.naming_len;
  t.alloc <- Backend_alloc.load t.dev t.layout;
  t.meta_cursor <- Int64.to_int (Device.read_u64 t.dev ~addr:t.layout.Layout.meta_base);
  rebuild_ds_registry t;
  t.crashed <- false;
  let statuses = ref [] in
  for sid = 0 to t.layout.Layout.max_sessions - 1 do
    match load_session t sid with
    | None -> t.sessions.(sid) <- None
    | Some s ->
        t.sessions.(sid) <- Some s;
        (* Redo every intact transaction past the LPN. Replay is
           idempotent: entries are absolute-address redo records. *)
        let torn = replay_pending t ~at:0 s in
        statuses :=
          (sid, if torn then Session_torn_tail else Session_consistent) :: !statuses
  done;
  List.rev !statuses

let of_device ?(name = "backend") dev lat =
  let layout = Layout.load dev in
  let t =
    make ~name dev lat layout
      ~naming:(Naming.load dev ~base:layout.Layout.naming_base ~len:layout.Layout.naming_len)
      ~alloc:(Backend_alloc.load dev layout)
  in
  ignore (restart t);
  t

(* -- RPC ----------------------------------------------------------------- *)

let alloc_meta t len =
  let len = (len + 7) / 8 * 8 in
  let base = t.layout.Layout.meta_base + 8 in
  if t.meta_cursor + len > t.layout.Layout.meta_len - 8 then None
  else begin
    let addr = base + t.meta_cursor in
    t.meta_cursor <- t.meta_cursor + len;
    Device.zero t.dev ~addr ~len;
    write_word t t.layout.Layout.meta_base (Int64.of_int t.meta_cursor);
    Some addr
  end

let fresh_session t =
  let rec find i =
    if i >= t.layout.Layout.max_sessions then None
    else if t.sessions.(i) = None then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some sid ->
      let s = { sid; lpn = 0; opn_covered = 0L; oplog_tail = 0 } in
      t.sessions.(sid) <- Some s;
      let base = Layout.session_slot t.layout ~session:sid in
      write_word t (base + Layout.slot_inuse) 1L;
      persist_session t s;
      (* Zero the session's rings so scans terminate at Empty. *)
      let mbase, mcap = Layout.memlog_region t.layout ~session:sid in
      Device.zero t.dev ~addr:mbase ~len:mcap;
      let obase, ocap = Layout.oplog_region t.layout ~session:sid in
      Device.zero t.dev ~addr:obase ~len:ocap;
      zero_uncharged t ~addr:mbase ~len:mcap;
      zero_uncharged t ~addr:obase ~len:ocap;
      Some sid

let handle_register_ds t ~at ds_name =
  match Hashtbl.find_opt t.ds_by_name ds_name with
  | Some r -> Rpc_msg.R_handle { ds = r.ds; root = r.root; lock = r.lock; sn = r.sn }
  | None -> (
      let alloc3 () =
        match (alloc_meta t 8, alloc_meta t 8, alloc_meta t 8) with
        | Some a, Some b, Some c -> Some (a, b, c)
        | _ -> None
      in
      match alloc3 () with
      | None -> Rpc_msg.R_error "meta heap exhausted"
      | Some (root, lock, sn) ->
          let ds = t.next_ds in
          t.next_ds <- ds + 1;
          Naming.set t.naming (ds_name ^ "!ds") Types.Meta ds;
          Naming.set t.naming (ds_name ^ "!root") Types.Root root;
          Naming.set t.naming (ds_name ^ "!lock") Types.Lock lock;
          Naming.set t.naming (ds_name ^ "!sn") Types.Seqno sn;
          let nb =
            Device.read t.dev ~addr:t.layout.Layout.naming_base
              ~len:(Naming.persisted_len t.naming)
          in
          repl t ~at ~addr:t.layout.Layout.naming_base nb;
          ignore (register_ds_record t ~ds ~ds_name ~root ~lock ~sn);
          Rpc_msg.R_handle { ds; root; lock; sn })

let handle t ~at ~session req =
  match req with
  | Rpc_msg.Open_session { reuse = Some sid; _ } ->
      if sid < 0 || sid >= t.layout.Layout.max_sessions || t.sessions.(sid) = None then
        Rpc_msg.R_error "no such session"
      else Rpc_msg.R_session sid
  | Rpc_msg.Open_session { reuse = None; _ } -> (
      match fresh_session t with
      | Some sid -> Rpc_msg.R_session sid
      | None -> Rpc_msg.R_error "no free session slots")
  | Rpc_msg.Close_session -> (
      match session with
      | None -> Rpc_msg.R_error "no session"
      | Some sid ->
          t.sessions.(sid) <- None;
          let base = Layout.session_slot t.layout ~session:sid in
          write_word t (base + Layout.slot_inuse) 0L;
          Rpc_msg.R_unit)
  | Rpc_msg.Malloc { slabs } -> (
      match Backend_alloc.alloc t.alloc ~slabs with
      | Some addr ->
          (* Replicate the touched bitmap bytes. *)
          let s = Layout.slab_index t.layout addr in
          let lo = s / 8 and hi = (s + slabs) / 8 in
          let b =
            Device.read t.dev ~addr:(t.layout.Layout.bitmap_base + lo) ~len:(hi - lo + 1)
          in
          repl t ~at ~addr:(t.layout.Layout.bitmap_base + lo) b;
          Rpc_msg.R_addr addr
      | None -> Rpc_msg.R_error "out of NVM slabs")
  | Rpc_msg.Free { addr; slabs } ->
      Backend_alloc.free t.alloc ~addr ~slabs;
      let s = Layout.slab_index t.layout addr in
      let lo = s / 8 and hi = (s + slabs) / 8 in
      let b = Device.read t.dev ~addr:(t.layout.Layout.bitmap_base + lo) ~len:(hi - lo + 1) in
      repl t ~at ~addr:(t.layout.Layout.bitmap_base + lo) b;
      Rpc_msg.R_unit
  | Rpc_msg.Free_batch { addrs } ->
      List.iter (fun addr -> Backend_alloc.free t.alloc ~addr ~slabs:1) addrs;
      (* Replicate the whole bitmap once: reclamation is batched and rare. *)
      let b =
        Device.read t.dev ~addr:t.layout.Layout.bitmap_base ~len:t.layout.Layout.bitmap_len
      in
      repl t ~at ~addr:t.layout.Layout.bitmap_base b;
      Rpc_msg.R_unit
  | Rpc_msg.Name_get { name } -> Rpc_msg.R_name (Naming.find t.naming name)
  | Rpc_msg.Register_ds { name } -> handle_register_ds t ~at name

let req_label = function
  | Rpc_msg.Open_session _ -> "open_session"
  | Rpc_msg.Close_session -> "close_session"
  | Rpc_msg.Malloc _ -> "malloc"
  | Rpc_msg.Free _ -> "free"
  | Rpc_msg.Free_batch _ -> "free_batch"
  | Rpc_msg.Name_get _ -> "name_get"
  | Rpc_msg.Register_ds _ -> "register_ds"

let rpc t ~conn ~session req =
  check_alive t;
  let clk = Verbs.client_clock conn in
  let reqb = Rpc_msg.encode_request req in
  (* Request: one-sided write into the session's RPC ring. *)
  let req_payload = Latency.rdma_payload_ns t.lat (Bytes.length reqb + 16) in
  let at0 = Clock.now clk in
  let _ =
    Timeline.acquire t.nic_tl ~at:at0 ~dur:(t.lat.Latency.rdma_post_ns + req_payload)
  in
  Clock.advance ~cause:Asym_obs.Attr.Alloc_rpc clk (t.lat.Latency.rdma_rtt_ns + req_payload);
  let arrival = Clock.now clk in
  (* Processing on the back-end CPU; media time for whatever it persisted. *)
  let before = Device.bytes_written t.dev in
  let resp = handle t ~at:arrival ~session (Rpc_msg.decode_request reqb) in
  let after = Device.bytes_written t.dev in
  let proc = rpc_base_ns + Latency.nvm_write_cost t.lat (after - before) in
  let start = Timeline.acquire t.cpu_tl ~at:arrival ~dur:proc in
  (* Queueing behind the back-end CPU is replay backlog, not RPC work. *)
  Clock.wait_until ~cause:Asym_obs.Attr.Replay_wait clk start;
  Clock.wait_until ~cause:Asym_obs.Attr.Alloc_rpc clk (start + proc);
  if Asym_obs.enabled () then begin
    let op = req_label req in
    Asym_obs.Registry.inc ~labels:[ ("op", op) ] "backend.rpcs";
    Asym_obs.Span.complete ~cat:"rpc" ~track:(Timeline.name t.cpu_tl) ~ts:start ~dur:proc
      ("rpc." ^ op)
  end;
  (* Response: one-sided read of the response slot. *)
  let respb = Rpc_msg.encode_response resp in
  let resp_payload = Latency.rdma_payload_ns t.lat (Bytes.length respb + 16) in
  let _ =
    Timeline.acquire t.nic_tl ~at:(Clock.now clk)
      ~dur:(t.lat.Latency.rdma_post_ns + resp_payload)
  in
  Clock.advance ~cause:Asym_obs.Attr.Alloc_rpc clk (t.lat.Latency.rdma_rtt_ns + resp_payload);
  t.n_rpcs <- t.n_rpcs + 1;
  Rpc_msg.decode_response respb
