open Asym_sim
open Asym_rdma

type config = {
  mode : [ `Direct | `Logged ];
  use_cache : bool;
  cache_bytes : int;
  cache_policy : Cache.policy;
  page_size : int;
  batch_size : int;
  oplog_signaled : bool;
  flush_on_unlock : bool;
  pointer_wire_opt : bool;
}

(* Managing an exact-LRU recency structure costs real instructions on
   every access — the reason the paper's hybrid policy exists (§4.4). *)
let lru_touch_ns = 60

let base_config =
  {
    mode = `Logged;
    use_cache = false;
    cache_bytes = 0;
    cache_policy = Cache.Hybrid;
    page_size = 256;
    batch_size = 1;
    oplog_signaled = true;
    flush_on_unlock = false;
    pointer_wire_opt = true;
  }

let naive () = { base_config with mode = `Direct }
let r () = base_config
let rc ?(cache_bytes = 4 * 1024 * 1024) () = { base_config with use_cache = true; cache_bytes }

let rcb ?(cache_bytes = 4 * 1024 * 1024) ?(batch_size = 1024) () =
  { base_config with use_cache = true; cache_bytes; batch_size }

let config_name c =
  match (c.mode, c.use_cache, c.batch_size > 1) with
  | `Direct, _, _ -> "Naive"
  | `Logged, false, false -> "R"
  | `Logged, true, false -> "RC"
  | `Logged, true, true -> "RCB"
  | `Logged, false, true -> "RB"

let use_op_log c = c.mode = `Logged && c.batch_size > 1

(* How many unsignaled op-log posts between synchronizing round trips. *)
let unsignaled_sync_period = 32

type t = {
  cname : string;
  cfg : config;
  mutable bk : Backend.t;
  mutable conn : Verbs.conn;
  clk : Clock.t;
  lat : Latency.t;
  mutable sid : Types.session_id;
  cache : Cache.t option;
  miss_page : bytes;  (* a missed page is read here, then copied into the cache *)
  overlay : Overlay.t;
  frames : Log.Frame.t;  (* the batch's memory logs, framed as written *)
  mutable pending_bytes : int;
  mutable pending_op_list : (Types.ds_id * (int64 * int * bytes)) list;  (* newest first *)
  pending_cas : (Types.addr, int64 * int64) Hashtbl.t;  (* addr -> (expected, desired) *)
  mutable pending_slab_frees : (Types.addr * int) list;  (* deferred reclamation *)
  mutable ops_since_flush : int;
  mutable memlog_head : int;
  mutable oplog_head : int;
  mutable oplog_bytes : int;  (* op-log bytes appended since the last flush *)
  mutable next_opnum : int64;
  mutable cur_op : int64 option;
  mutable op_started : Simtime.t;  (* span anchor for the current op *)
  (* Attribution window for the current op, over the clock's local sink —
     so the window survives mid-operation suspension under the co-sim
     (other clients charge the global sink while we are suspended). *)
  mutable attr_mark : Asym_obs.Attr.snapshot;
  mutable unsignaled_posts : int;
  mutable falloc : Front_alloc.t;
  handles : (string, Types.handle) Hashtbl.t;
  mutable crashed : bool;
  mutable n_flushes : int;
  mutable n_retries : int;
  mutable lock_wait_ns : Simtime.t;  (* virtual time spent acquiring writer locks *)
  retry_rng : Asym_util.Rng.t;  (* backoff jitter, seeded from the client name *)
  mutable n_fault_retries : int;
  mutable n_reconnects : int;
}

let clock t = t.clk
let session t = t.sid
let config t = t.cfg
let flushes t = t.n_flushes
let read_retries t = t.n_retries
let lock_wait_ns t = t.lock_wait_ns
let rdma_ops t = Verbs.ops_posted t.conn
let rdma_bytes t = Verbs.bytes_on_wire t.conn
let allocator t = t.falloc
let batch_size t = t.cfg.batch_size
let connection t = t.conn
let fault_retries t = t.n_fault_retries
let reconnects t = t.n_reconnects

let cache_stats t =
  match t.cache with Some c -> (Cache.hits c, Cache.misses c) | None -> (0, 0)

let invalidate_cache t = match t.cache with Some c -> Cache.clear c | None -> ()

let check_live t = if t.crashed then failwith (t.cname ^ ": client is crashed")

(* -- transient-fault retry --------------------------------------------------- *)

(* A blackout longer than the full per-verb budget times this many
   reconnect cycles is indistinguishable from a dead back-end; give up
   and let the caller's failure handling take over. *)
let max_reconnects_per_verb = 64

(* Retry policy for verbs lost to transient faults: up to [retry_max]
   re-posts with capped exponential backoff starting at one round trip,
   then the connection is treated as degraded and re-established. *)
let retry_max = 8
let retry_base_ns = 2_000
let retry_cap_ns = 200_000

let backoff_ns t n =
  let capped = min retry_cap_ns (retry_base_ns lsl min n 16) in
  capped + Asym_util.Rng.int t.retry_rng (max 1 (capped / 4))

(* Run [f], absorbing verbs lost to transient faults: re-post with capped
   exponential backoff (seeded jitter) up to the per-verb budget; when
   the budget runs dry, treat the connection as degraded, re-establish
   it, and resume with a fresh budget. The resumed attempt re-posts the
   same verb at the same absolute address — safe because log appends are
   positional and replay is opnum-idempotent, and atomics only ever lose
   the request (never the ack). Only {!Verbs.Verb_timeout} is absorbed:
   real failures ([Failure_detected]) and injected crash points still
   propagate. *)
let with_retry t f =
  let rec go ~attempt ~reconnects =
    try f ()
    with Verbs.Verb_timeout _ as e ->
      if attempt < retry_max then begin
        t.n_fault_retries <- t.n_fault_retries + 1;
        if Asym_obs.enabled () then Asym_obs.Registry.inc "client.fault_retries";
        Clock.advance ~cause:Asym_obs.Attr.Fault_retry t.clk (backoff_ns t attempt);
        go ~attempt:(attempt + 1) ~reconnects
      end
      else if reconnects < max_reconnects_per_verb then begin
        (* Degraded: tear down and re-establish the queue pair. Cursors
           are untouched — nothing the lost verb was carrying has been
           acknowledged, so the resumed attempt simply re-posts it. *)
        t.n_reconnects <- t.n_reconnects + 1;
        if Asym_obs.enabled () then Asym_obs.Registry.inc "client.reconnects";
        Asym_obs.Span.instant ~cat:"fault" ~track:t.cname ~ts:(Clock.now t.clk)
          "client.degraded_reconnect";
        Clock.advance ~cause:Asym_obs.Attr.Fault_retry t.clk (3 * t.lat.Latency.rdma_rtt_ns);
        go ~attempt:0 ~reconnects:(reconnects + 1)
      end
      else raise e
  in
  go ~attempt:0 ~reconnects:0

(* A minimal liveness probe over the faulty path: one retried 8-byte read
   of the superblock. [false] means even the full retry/reconnect budget
   could not get a verb through — the caller (e.g. a lease renewal loop)
   should skip a period rather than declare the remote dead. *)
let ping t =
  match with_retry t (fun () -> ignore (Verbs.read t.conn ~addr:0 ~len:8)) with
  | () -> true
  | exception Verbs.Verb_timeout _ -> false

(* -- RPC ------------------------------------------------------------------ *)

let rpc t req = Backend.rpc t.bk ~conn:t.conn ~session:(Some t.sid) req

(* A response the request does not admit: [what] names the failed step. *)
let bad_response name what r = Fmt.failwith "%s: %s %a" name what Rpc_msg.pp_response r
let unexpected t r = bad_response t.cname "unexpected RPC response" r

let rpc_unit t req = match rpc t req with Rpc_msg.R_unit -> () | other -> unexpected t other

let rpc_addr t req =
  match rpc t req with
  | Rpc_msg.R_addr a -> a
  | Rpc_msg.R_error "out of NVM slabs" -> raise Front_alloc.Out_of_nvm
  | other -> unexpected t other

(* Returning a slab to the back-end flips its persistent bitmap bit
   immediately — it is not covered by the memory-log transaction. A slab
   release triggered by a not-yet-covered operation must therefore wait
   for the next [rnvm_tx_write]: otherwise a crash loses the unlink writes
   while the slab is durably free, and the replayed operations can be
   handed a slab that still holds live nodes. In direct (naive) mode every
   write is already durable, so frees go out immediately. *)
let release_slabs t addr slabs =
  match t.cfg.mode with
  | `Logged -> t.pending_slab_frees <- (addr, slabs) :: t.pending_slab_frees
  | `Direct -> rpc_unit t (Rpc_msg.Free { addr; slabs })

let send_deferred_frees t =
  if t.pending_slab_frees <> [] then begin
    let singles, runs = List.partition (fun (_, n) -> n = 1) t.pending_slab_frees in
    t.pending_slab_frees <- [];
    if singles <> [] then rpc_unit t (Rpc_msg.Free_batch { addrs = List.map fst singles });
    List.iter (fun (addr, slabs) -> rpc_unit t (Rpc_msg.Free { addr; slabs })) runs
  end

let make_falloc t =
  let layout = Backend.layout t.bk in
  let slab_size = layout.Layout.slab_size in
  let data_base = layout.Layout.data_base in
  Front_alloc.create
    {
      Front_alloc.slab_size;
      alloc_slabs = (fun n -> rpc_addr t (Rpc_msg.Malloc { slabs = n }));
      free_slabs = (fun addr slabs -> release_slabs t addr slabs);
      free_slab_batch = (fun addrs -> List.iter (fun a -> release_slabs t a 1) addrs);
      slab_base_of =
        (fun addr -> data_base + ((addr - data_base) / slab_size * slab_size));
    }

let connect ?(name = "frontend") cfg bk ~clock =
  let lat = Backend.latency bk in
  let conn =
    Verbs.connect ~client:clock ~remote_nic:(Backend.nic bk) ~remote_mem:(Backend.device bk) lat
  in
  let cache =
    if cfg.use_cache then
      Some
        (Cache.create ~policy:cfg.cache_policy ~page_size:cfg.page_size
           ~capacity_bytes:cfg.cache_bytes
           (Asym_util.Rng.create ~seed:(Int64.of_int 777)))
    else None
  in
  let t =
    {
      cname = name;
      cfg;
      bk;
      conn;
      clk = clock;
      lat;
      sid = -1;
      cache;
      miss_page = Bytes.create (if cfg.use_cache then cfg.page_size else 0);
      overlay = Overlay.create ();
      frames = Log.Frame.create ();
      pending_bytes = 0;
      pending_op_list = [];
      pending_cas = Hashtbl.create 4;
      pending_slab_frees = [];
      ops_since_flush = 0;
      memlog_head = 0;
      oplog_head = 0;
      oplog_bytes = 0;
      (* opnum 0 is reserved: opn_covered = 0 means "nothing covered". *)
      next_opnum = 1L;
      cur_op = None;
      op_started = 0;
      attr_mark = Asym_obs.Attr.local_snapshot (Clock.attr clock);
      unsignaled_posts = 0;
      falloc = Front_alloc.create
          {
            Front_alloc.slab_size = 1;
            alloc_slabs = (fun _ -> assert false);
            free_slabs = (fun _ _ -> assert false);
            free_slab_batch = (fun _ -> assert false);
            slab_base_of = (fun a -> a);
          };
      handles = Hashtbl.create 8;
      crashed = false;
      n_flushes = 0;
      n_retries = 0;
      lock_wait_ns = 0;
      (* The name hash keeps jitter streams distinct per client while a
         rerun with the same topology draws the same stream. *)
      retry_rng = Asym_util.Rng.create ~seed:(Int64.of_int (Hashtbl.hash name));
      n_fault_retries = 0;
      n_reconnects = 0;
    }
  in
  (match Backend.rpc bk ~conn ~session:None (Rpc_msg.Open_session { client_name = name; reuse = None }) with
  | Rpc_msg.R_session sid -> t.sid <- sid
  | other -> bad_response name "open_session failed:" other);
  t.falloc <- make_falloc t;
  t

(* -- naming ---------------------------------------------------------------- *)

let register_ds t ds_name =
  check_live t;
  match Hashtbl.find_opt t.handles ds_name with
  | Some h -> h
  | None -> (
      match rpc t (Rpc_msg.Register_ds { name = ds_name }) with
      | Rpc_msg.R_handle { ds; root; lock; sn } ->
          let h = { Types.id = ds; root; lock; sn; ds_name } in
          Hashtbl.replace t.handles ds_name h;
          h
      | other -> bad_response t.cname "register_ds failed:" other)

let lookup_ds t ds_name =
  check_live t;
  match Hashtbl.find_opt t.handles ds_name with
  | Some h -> Some h
  | None -> (
      match rpc t (Rpc_msg.Name_get { name = ds_name ^ "!ds" }) with
      | Rpc_msg.R_name None -> None
      | Rpc_msg.R_name (Some _) -> Some (register_ds t ds_name)
      | other -> bad_response t.cname "lookup_ds failed:" other)

(* -- reads ----------------------------------------------------------------- *)

(* A miss reads the page into [miss_page] (a fresh buffer for a device's
   short last page) and patches it before the cache copies it in, so a
   verb that fails for good leaves the cache as it was: no slot claimed,
   no eviction drawn. *)
let read_via_cache t c ~addr ~len =
  let page = Cache.page_size c in
  let out = Bytes.create len in
  let first = addr / page in
  let last = (addr + len - 1) / page in
  for id = first to last do
    let page_base = id * page in
    let s = Cache.find c id in
    let s =
      if s >= 0 then begin
        Clock.advance t.clk
          (t.lat.Latency.dram_ns + if t.cfg.cache_policy = Cache.Lru then lru_touch_ns else 0);
        if Asym_obs.enabled () then
          Asym_obs.Registry.inc ~labels:[ ("event", "hit") ] "client.cache";
        s
      end
      else begin
        if Asym_obs.enabled () then
          Asym_obs.Registry.inc ~labels:[ ("event", "miss") ] "client.cache";
        let cap = Asym_nvm.Device.capacity (Backend.device t.bk) in
        let plen = Int.min page (cap - page_base) in
        let b = if plen = page then t.miss_page else Bytes.create plen in
        with_retry t (fun () -> Verbs.read_into t.conn ~addr:page_base b ~pos:0 ~len:plen);
        (* The overlay patches the page before insertion so the cache
           never goes backwards w.r.t. our own pending writes. *)
        Overlay.patch t.overlay ~addr:page_base b;
        Cache.insert c id b ~len:plen
      end
    in
    let lo = Int.max addr page_base in
    let hi = Int.min (addr + len) (page_base + Cache.page_length c s) in
    if hi > lo then
      Bytes.blit (Cache.arena c) ((s * page) + lo - page_base) out (lo - addr) (hi - lo)
  done;
  out

(* A stale cached pointer can produce wild addresses/lengths during an
   optimistic traversal; reject them before allocating buffers. The
   resulting Invalid_argument aborts the read section, which retries. *)
let sane_read_limit = 16 * 1024 * 1024

let read ?(hint = `Hot) t ~addr ~len =
  check_live t;
  if len < 0 || len > sane_read_limit || addr < 0 then
    invalid_arg (Printf.sprintf "%s: unreasonable read (addr=%d len=%d)" t.cname addr len);
  match Overlay.try_read t.overlay ~addr ~len with
  | Some b ->
      Clock.advance t.clk t.lat.Latency.dram_ns;
      b
  | None -> (
      (* Pending bytes are patched in once, where a verb fetched them:
         cached pages already hold them ([write]/[cas_u64] patch the cache
         and a missed page is patched before insertion). *)
      match t.cache with
      | Some c when hint = `Hot -> read_via_cache t c ~addr ~len
      | _ ->
          let b = with_retry t (fun () -> Verbs.read t.conn ~addr ~len) in
          Overlay.patch t.overlay ~addr b;
          b)

let read_u64 t ?hint addr =
  let b = read ?hint t ~addr ~len:8 in
  Bytes.get_int64_le b 0

(* -- operation log ---------------------------------------------------------- *)

(* The ring offset for a [len]-byte record at append head [head]. A record
   never ends on the ring's last byte, which a wrap marker may need; one
   that would goes to the ring base, behind a marker at [head]. [forward]:
   the op log's marker goes to the mirrors like its records. *)
let ring_place t ~ring_base ~cap ~head ~len ~forward ~too_big =
  if len + 1 > cap then failwith (t.cname ^ ": " ^ too_big);
  if head + len + 1 <= cap then head
  else begin
    let addr = ring_base + head in
    with_retry t (fun () -> Verbs.write t.conn ~addr Log.wrap_marker);
    if forward then Backend.replicate_raw t.bk ~at:(Clock.now t.clk) ~addr Log.wrap_marker;
    0
  end

let oplog_append ?(signaled = None) t raw =
  let signaled = match signaled with Some s -> s | None -> t.cfg.oplog_signaled in
  let ring_base, cap = Backend.oplog_ring t.bk ~session:t.sid in
  let len = Bytes.length raw in
  let obs_t0 = if Asym_obs.enabled () then Clock.now t.clk else 0 in
  let offset =
    ring_place t ~ring_base ~cap ~head:t.oplog_head ~len ~forward:true
      ~too_big:"operation record exceeds op-log ring"
  in
  (if signaled then with_retry t (fun () -> Verbs.write t.conn ~addr:(ring_base + offset) raw)
   else begin
     Verbs.write_unsignaled t.conn ~addr:(ring_base + offset) raw;
     t.unsignaled_posts <- t.unsignaled_posts + 1;
     if t.unsignaled_posts >= unsignaled_sync_period then begin
       (* Synchronize: wait for one full round trip to collect completions. *)
       Clock.advance ~cause:Asym_obs.Attr.Rdma_rtt t.clk t.lat.Latency.rdma_rtt_ns;
       t.unsignaled_posts <- 0
     end
   end);
  t.oplog_head <- offset + len;
  t.oplog_bytes <- t.oplog_bytes + len;
  Backend.replicate_raw t.bk ~at:(Clock.now t.clk) ~addr:(ring_base + offset) raw;
  if Asym_obs.enabled () then begin
    Asym_obs.Registry.add "log.appended_bytes" len;
    Asym_obs.Span.complete ~cat:"log" ~track:t.cname ~ts:obs_t0
      ~dur:(Clock.now t.clk - obs_t0) "oplog.append"
  end

let op_begin t ~ds ~optype ~params =
  check_live t;
  t.op_started <- Clock.now t.clk;
  if Asym_obs.enabled () then t.attr_mark <- Asym_obs.Attr.local_snapshot (Clock.attr t.clk);
  let opnum = t.next_opnum in
  t.next_opnum <- Int64.add opnum 1L;
  if use_op_log t.cfg then begin
    let raw = Log.Op_entry.encode { Log.Op_entry.ds; opnum; optype; params } in
    oplog_append t raw;
    t.pending_op_list <- (ds, (opnum, optype, params)) :: t.pending_op_list
  end;
  t.cur_op <- Some opnum;
  opnum

let pending_ops t ~ds =
  List.rev
    (List.filter_map (fun (d, op) -> if d = ds then Some op else None) t.pending_op_list)

(* -- writes ----------------------------------------------------------------- *)

let write t ~ds ~addr value =
  check_live t;
  match t.cfg.mode with
  | `Direct ->
      with_retry t (fun () -> Verbs.write t.conn ~addr value);
      Backend.replicate_raw t.bk ~at:(Clock.now t.clk) ~addr value;
      (match t.cache with Some c -> Cache.patch c ~addr value | None -> ())
  | `Logged ->
      let from_op =
        if use_op_log t.cfg && t.cfg.pointer_wire_opt && Bytes.length value > 12 then t.cur_op
        else None
      in
      Log.Frame.append t.frames ~ds ?from_op ~addr value;
      t.pending_bytes <- t.pending_bytes + Bytes.length value + 13;
      Overlay.add t.overlay ~addr value;
      (match t.cache with Some c -> Cache.patch c ~addr value | None -> ());
      Clock.advance t.clk t.lat.Latency.dram_ns

let write_u64 t ~ds addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t ~ds ~addr b

(* In logged mode a root switch (§6.2) may not become remotely visible
   before the memory logs of the version it publishes are durable, so the
   CAS is deferred to the next [rnvm_tx_write] (one root swap per batch —
   which is also what makes multi-version batching pay off, Figure 6a).
   The overlay serves the writer's own root reads in the meantime. *)
let cas_u64 t ~ds addr ~expected ~desired =
  check_live t;
  ignore ds;
  match t.cfg.mode with
  | `Direct ->
      let old = with_retry t (fun () -> Verbs.compare_and_swap t.conn ~addr ~expected ~desired) in
      if old = expected then begin
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 desired;
        Backend.replicate_raw t.bk ~at:(Clock.now t.clk) ~addr b
      end;
      old
  | `Logged ->
      let current =
        match Overlay.try_read t.overlay ~addr ~len:8 with
        | Some b -> Bytes.get_int64_le b 0
        | None ->
            Bytes.get_int64_le (with_retry t (fun () -> Verbs.read t.conn ~addr ~len:8)) 0
      in
      if current <> expected then current
      else begin
        (match Hashtbl.find_opt t.pending_cas addr with
        | Some (first_expected, _) -> Hashtbl.replace t.pending_cas addr (first_expected, desired)
        | None -> Hashtbl.replace t.pending_cas addr (expected, desired));
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 desired;
        Overlay.add t.overlay ~addr b;
        (match t.cache with Some c -> Cache.patch c ~addr b | None -> ());
        Clock.advance t.clk t.lat.Latency.dram_ns;
        expected
      end

(* -- transactional flush ------------------------------------------------------ *)

let run_pending_cas t =
  if Hashtbl.length t.pending_cas > 0 then begin
    let swaps = Hashtbl.fold (fun addr (e, d) acc -> (addr, e, d) :: acc) t.pending_cas [] in
    Hashtbl.reset t.pending_cas;
    List.iter
      (fun (addr, expected, desired) ->
        let old = with_retry t (fun () -> Verbs.compare_and_swap t.conn ~addr ~expected ~desired) in
        if old <> expected then
          Fmt.failwith "%s: deferred root CAS lost a race (second writer on an MV structure?)"
            t.cname;
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 desired;
        Backend.replicate_raw t.bk ~at:(Clock.now t.clk) ~addr b)
      swaps
  end

let flush t =
  check_live t;
  let obs_t0 = if Asym_obs.enabled () then Clock.now t.clk else 0 in
  if
    (not (Log.Frame.is_empty t.frames))
    || t.pending_op_list <> []
    || Hashtbl.length t.pending_cas > 0
  then begin
    (* With no memory logs buffered (e.g. a batch fully annulled by the
       §8.1 optimization) the seal commits an empty transaction, so the
       OPN still advances past the covered operations. *)
    Log.Frame.seal t.frames ~op_hi:(Int64.pred t.next_opnum);
    let total = Log.Frame.length t.frames and wire = Log.Frame.wire t.frames in
    let ring_base, cap = Backend.memlog_ring t.bk ~session:t.sid in
    t.memlog_head <-
      ring_place t ~ring_base ~cap ~head:t.memlog_head ~len:total ~forward:false
        ~too_big:"transaction exceeds memory-log ring";
    with_retry t (fun () ->
        Verbs.write ~wire_len:wire ~len:total t.conn ~addr:(ring_base + t.memlog_head)
          (Log.Frame.buffer t.frames));
    t.memlog_head <- t.memlog_head + total;
    Backend.drain_session t.bk ~session:t.sid ~arrival:(Clock.now t.clk);
    (* Root switches become visible only now that their version's memory
       logs are replayed. *)
    run_pending_cas t;
    (* Slab reclamation triggered by the now-covered operations is safe. *)
    send_deferred_frees t;
    Log.Frame.reset t.frames;
    t.pending_bytes <- 0;
    t.pending_op_list <- [];
    t.n_flushes <- t.n_flushes + 1;
    if Asym_obs.enabled () then begin
      Asym_obs.Registry.inc "client.flushes";
      Asym_obs.Registry.add "log.tx_wire_bytes" wire;
      Asym_obs.Span.complete ~cat:"log" ~track:t.cname ~ts:obs_t0
        ~dur:(Clock.now t.clk - obs_t0) "client.flush"
    end
  end;
  Overlay.clear t.overlay;
  t.ops_since_flush <- 0;
  t.oplog_bytes <- 0

(* §4.1: a read after a persistent fence must observe all data the fence
   ordered before it; the fence completes when the buffered memory logs
   are persisted AND the back-end has replayed everything up to them (the
   read-after-fence then sees the data area up to date). In this
   implementation the flush already drains synchronously, so the fence is
   the flush plus waiting out any replay still queued on the back-end
   CPU. *)
let persist_fence t =
  flush t;
  Clock.wait_until ~cause:Asym_obs.Attr.Replay_wait t.clk
    (Timeline.free_at (Backend.cpu t.bk))

let op_end t ~ds =
  check_live t;
  Clock.advance t.clk t.lat.Latency.cpu_op_ns;
  t.cur_op <- None;
  t.ops_since_flush <- t.ops_since_flush + 1;
  if Asym_obs.enabled () then begin
    let now = Clock.now t.clk in
    Asym_obs.Registry.inc ~labels:[ ("ds", string_of_int ds) ] "client.ops";
    (* Per-operation breakdown: everything charged since op_begin, by
       cause, rides on the op span for the trace. *)
    let by_cause =
      List.filter
        (fun (_, v) -> v > 0)
        (Asym_obs.Attr.local_since (Clock.attr t.clk) t.attr_mark)
    in
    let args = List.map (fun (c, v) -> (Asym_obs.Attr.name c, v)) by_cause in
    Asym_obs.Span.complete ~cat:"core" ~args ~track:t.cname ~ts:t.op_started
      ~dur:(now - t.op_started) "client.op"
  end;
  match t.cfg.mode with
  | `Direct -> ()
  | `Logged ->
      let _, memlog_cap = Backend.memlog_ring t.bk ~session:t.sid in
      let _, oplog_cap = Backend.oplog_ring t.bk ~session:t.sid in
      (* Flush at the batch boundary, or early when the local buffer fills
         (the [is_fulled ()] condition of the paper's Figure 2), or before
         the op-log records the next flush covers could lap the ring: GC
         can only move the op-log tail past covered records. *)
      if
        t.ops_since_flush >= t.cfg.batch_size
        || t.pending_bytes >= memlog_cap / 4
        || t.oplog_bytes >= oplog_cap / 2
      then flush t

(* -- allocator -------------------------------------------------------------- *)

let malloc t size =
  check_live t;
  Clock.advance t.clk t.lat.Latency.dram_ns;
  Front_alloc.alloc t.falloc size

let free t addr ~len =
  check_live t;
  Clock.advance t.clk t.lat.Latency.dram_ns;
  Front_alloc.free t.falloc addr ~len

(* -- locks (§6.1) ------------------------------------------------------------- *)

let lock_record t ~acquire lock_addr =
  (* The lock-ahead log: a small durable record naming the lock. *)
  let opnum = t.next_opnum in
  t.next_opnum <- Int64.add opnum 1L;
  let raw = Log.Op_entry.encode (Log.lock_record ~acquire ~opnum lock_addr) in
  (* Lock-ahead records only need to be ordered before the memory logs
     they guard, not to block the writer: post them unsignaled. *)
  oplog_append ~signaled:(Some false) t raw

(* A probe spinning against a live holder outside the co-simulation (no
   scheduler to run the holder's release) would hang; convert that into
   a loud failure. At one probe per rdma_atomic_ns this bound is minutes
   of virtual time — far beyond any legitimate critical section. *)
let max_lock_probes = 1_000_000

let writer_lock t (h : Types.handle) =
  check_live t;
  lock_record t ~acquire:true h.Types.lock;
  let requested = Clock.now t.clk in
  (* Acquire by spinning RDMA CAS probes on the device lock word. Each
     probe advances the clock (and so suspends under the co-simulation),
     which is what lets the holder's release write land between two
     probes of the loser — genuine within-operation contention. *)
  let probes = ref 0 in
  while not (with_retry t (fun () -> Verbs.lock_probe t.conn ~addr:h.Types.lock)) do
    incr probes;
    if !probes > max_lock_probes then
      Fmt.failwith "%s: writer_lock: lock at %#x still held after %d CAS probes" t.cname
        h.Types.lock max_lock_probes
  done;
  t.lock_wait_ns <- t.lock_wait_ns + (Clock.now t.clk - requested)

let release_lock t lock_addr =
  (* The release write needs ordering, not an ack. *)
  Verbs.write_unsignaled t.conn ~addr:lock_addr (Bytes.make 8 '\000');
  lock_record t ~acquire:false lock_addr

let writer_unlock t (h : Types.handle) =
  check_live t;
  if t.cfg.flush_on_unlock then flush t;
  release_lock t h.Types.lock

(* -- optimistic read sections (§6.3, Algorithm 2) ------------------------------ *)

let max_read_retries = 64

(* Optimistic read section (Algorithm 2). The section runs against the
   front-end cache; Reader_Lock and Reader_Unlock read the per-structure
   sequence number from NVM, and the section conflicts when the first
   read is odd (a replay is mid-application) or the two differ (a replay
   changed the data area in between). A failed validation — or a
   traversal that tripped over bytes a concurrent writer reclaimed —
   drops the cached pages and retries against fresh remote state. Pages
   cached across sections may thus serve a slightly stale but
   structurally consistent version between writer transactions, which is
   the same freshness contract the multi-version readers get (§6.2). *)
let read_section ?(retry_on = `Conflict) t (h : Types.handle) f =
  check_live t;
  let read_sn () =
    Bytes.get_int64_le (with_retry t (fun () -> Verbs.read t.conn ~addr:h.Types.sn ~len:8)) 0
  in
  let rec attempt n =
    let amark =
      if Asym_obs.enabled () then Some (Asym_obs.Attr.local_snapshot (Clock.attr t.clk))
      else None
    in
    let sn_begin = read_sn () in
    let outcome = try `Ok (f ()) with Invalid_argument _ | Failure _ -> `Torn_traversal in
    let sn_end = read_sn () in
    let conflicted =
      match (outcome, retry_on) with
      | `Torn_traversal, _ -> true
      | `Ok _, `Torn -> false
      | `Ok _, `Conflict -> Int64.logand sn_begin 1L <> 0L || sn_begin <> sn_end
    in
    if conflicted && n < max_read_retries then begin
      t.n_retries <- t.n_retries + 1;
      if Asym_obs.enabled () then begin
        Asym_obs.Registry.inc "client.read_retries";
        (* The failed attempt's time was wasted, whatever it was spent
           on: re-classify it as retry cost (total preserved). *)
        match amark with
        | Some since ->
            Asym_obs.Attr.local_reattribute (Clock.attr t.clk) ~since
              Asym_obs.Attr.Read_retry
        | None -> ()
      end;
      (match t.cache with Some c -> Cache.clear c | None -> ());
      attempt (n + 1)
    end
    else
      match outcome with
      | `Ok v -> v
      | `Torn_traversal -> failwith (t.cname ^ ": read section kept tearing")
  in
  attempt 0

(* -- session lifecycle ------------------------------------------------------ *)

let close t =
  check_live t;
  flush t;
  (match rpc t Rpc_msg.Close_session with
  | Rpc_msg.R_unit -> ()
  | other -> bad_response t.cname "close_session failed:" other);
  (* The crashed flag doubles as a use-after-close guard. *)
  t.crashed <- true

(* -- failure handling ----------------------------------------------------------- *)

let drop_volatile t =
  (match t.cache with Some c -> Cache.clear c | None -> ());
  Overlay.clear t.overlay;
  Log.Frame.reset t.frames;
  t.pending_bytes <- 0;
  t.pending_op_list <- [];
  Hashtbl.reset t.pending_cas;
  (* Dropped frees leak their slabs — the same bounded, safe leak as the
     block-level allocator state (§5.2). *)
  t.pending_slab_frees <- [];
  t.ops_since_flush <- 0;
  t.cur_op <- None;
  t.unsignaled_posts <- 0

let crash t =
  drop_volatile t;
  Hashtbl.reset t.handles;
  t.crashed <- true;
  Asym_obs.Span.instant ~cat:"fault" ~track:t.cname ~ts:(Clock.now t.clk) "client.crash"

(* The session's cursors as its rings hold them, read with one-sided
   verbs: the slot gives the LPN (the memory-log head: every flush is
   replayed before it returns, and a restart replays the rest), the OPN
   and the op-log tail, and one walk from the tail gives the op-log head,
   the largest logged operation number, the operations past the OPN, the
   locks still held and the bytes GC has yet to reclaim. *)
let read_cursors t =
  let layout = Backend.layout t.bk in
  let slot =
    with_retry t (fun () ->
        Verbs.read t.conn
          ~addr:(Layout.session_slot layout ~session:t.sid)
          ~len:Layout.slot_cursors_len)
  in
  let word off = Bytes.get_int64_le slot off in
  let opn = word Layout.slot_opn in
  let ring_base, cap = Backend.oplog_ring t.bk ~session:t.sid in
  let read ~pos ~len = with_retry t (fun () -> Verbs.read t.conn ~addr:(ring_base + pos) ~len) in
  let ops = ref [] and held = ref [] and last = ref opn and walked = ref 0 in
  let head, _torn =
    Log.walk ~scan:Log.Op_entry.scan ~read ~cap ~from:(Int64.to_int (word Layout.slot_tail))
      (fun op ~pos:_ ~len ->
        let opnum = op.Log.Op_entry.opnum in
        walked := !walked + len;
        held := Log.track_lock !held op;
        if Int64.compare opnum !last > 0 then last := opnum;
        if (not (Log.internal_optype op.Log.Op_entry.optype)) && Int64.compare opnum opn > 0
        then begin
          (* Recovery re-executes these: a duplicated opnum here would
             double-apply an operation, so the stream must be strictly
             increasing. (A retried op-log append lands at the same ring
             offset — positional idempotence — which is exactly what this
             assertion pins down.) *)
          (match !ops with
          | prev :: _ -> assert (Int64.compare opnum prev.Log.Op_entry.opnum > 0)
          | [] -> ());
          ops := op :: !ops
        end)
  in
  t.memlog_head <- Int64.to_int (word Layout.slot_lpn);
  t.oplog_head <- head;
  t.oplog_bytes <- !walked;
  t.next_opnum <- Int64.succ !last;
  (List.rev !ops, !held)

let recover ?backend t =
  drop_volatile t;
  (match backend with
  | Some bk ->
      t.bk <- bk;
      t.conn <-
        Verbs.connect ~client:t.clk ~remote_nic:(Backend.nic bk) ~remote_mem:(Backend.device bk)
          t.lat;
      Hashtbl.reset t.handles
  | None -> ());
  t.crashed <- false;
  let obs_t0 = if Asym_obs.enabled () then Clock.now t.clk else 0 in
  Asym_obs.Span.instant ~cat:"fault" ~track:t.cname ~ts:obs_t0 "client.recover_begin";
  (match
     Backend.rpc t.bk ~conn:t.conn ~session:None
       (Rpc_msg.Open_session { client_name = t.cname; reuse = Some t.sid })
   with
  | Rpc_msg.R_session sid -> t.sid <- sid
  | other -> bad_response t.cname "session reopen failed:" other);
  let ops, held = read_cursors t in
  t.falloc <- make_falloc t;
  (* Release locks our previous incarnation still held (lock-ahead log). *)
  List.iter (release_lock t) held;
  if Asym_obs.enabled () then begin
    Asym_obs.Registry.add "log.recovered_ops" (List.length ops);
    Asym_obs.Span.complete ~cat:"fault" ~track:t.cname ~ts:obs_t0
      ~dur:(Clock.now t.clk - obs_t0) "client.recover"
  end;
  ops
