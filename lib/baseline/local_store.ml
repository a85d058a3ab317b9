(** The best-possible symmetric NVM architecture (paper §9.2 baseline).

    Data structures live in NVM attached to the local memory bus and are
    manipulated with loads/stores plus persist fences; for fault tolerance
    a log of every update is shipped to a remote NVM node {e
    asynchronously} — the paper notes this reaches the symmetric upper
    bound but "will obviously cause inconsistency" on a badly timed crash.

    [Symmetric] ships one unsignaled log post per operation;
    [Symmetric-B] coalesces [batch_size] operations per post.

    Implements {!Asym_core.Store.S}, so the exact same data-structure
    functors run against it. *)

open Asym_sim
open Asym_core

type config = { log_batch : int }

let symmetric = { log_batch = 1 }
let symmetric_b = { log_batch = 1024 }

type t = {
  clk : Clock.t;
  lat : Latency.t;
  dev : Asym_nvm.Device.t;  (* local NVM *)
  remote_log : Asym_rdma.Verbs.conn;  (* asynchronous replication target *)
  remote_log_dev : Asym_nvm.Device.t;
  cfg : config;
  falloc : Front_alloc.t;
  handles : (string, Types.handle) Hashtbl.t;
  mutable meta_cursor : int;
  mutable next_ds : int;
  mutable remote_log_head : int;
  mutable pending_log_bytes : int;
  mutable ops_since_ship : int;
}

(* Local layout: a small meta region for roots/locks/seqnos, then the slab
   pool. *)
let meta_len = 64 * 1024
let slab_size = 4096

let create ?(name = "sym") ?(capacity = 64 * 1024 * 1024) ?(cfg = symmetric) lat ~clock =
  let dev = Asym_nvm.Device.create ~name:(name ^ ".nvm") ~capacity lat in
  let remote_log_dev =
    Asym_nvm.Device.create ~name:(name ^ ".remote-log") ~capacity:(16 * 1024 * 1024) lat
  in
  let remote_nic = Timeline.create ~name:(name ^ ".remote-nic") () in
  let remote_log =
    Asym_rdma.Verbs.connect ~client:clock ~remote_nic ~remote_mem:remote_log_dev lat
  in
  let data_base = meta_len in
  let n_slabs = (capacity - data_base) / slab_size in
  (* Local slab pool with a trivial free-list; each slab alloc/free costs a
     persistent bitmap line write, like the NVML pool allocator. *)
  let free = ref (List.init n_slabs (fun i -> data_base + (i * slab_size))) in
  let t_ref = ref None in
  let charge_alloc () =
    match !t_ref with
    | Some t ->
        Clock.advance ~cause:Asym_obs.Attr.Nvm_media t.clk
          (Latency.nvm_write_cost t.lat 8 + t.lat.Latency.persist_fence_ns)
    | None -> ()
  in
  let falloc =
    Front_alloc.create
      {
        Front_alloc.slab_size;
        alloc_slabs =
          (fun n ->
            charge_alloc ();
            match !free with
            | a :: rest when n = 1 ->
                free := rest;
                a
            | _ -> (
                (* Contiguous run: linear scan of the sorted free list. *)
                let sorted = List.sort compare !free in
                let rec find run = function
                  | [] -> raise Front_alloc.Out_of_nvm
                  | a :: rest -> (
                      match run with
                      | [] -> find [ a ] rest
                      | last :: _ when a = last + slab_size ->
                          let run = a :: run in
                          if List.length run = n then begin
                            let taken = List.rev run in
                            free :=
                              List.filter (fun x -> not (List.mem x taken)) sorted;
                            List.hd taken
                          end
                          else find run rest
                      | _ -> find [ a ] rest)
                in
                find [] sorted));
        free_slabs =
          (fun addr n ->
            charge_alloc ();
            for i = 0 to n - 1 do
              free := (addr + (i * slab_size)) :: !free
            done);
        free_slab_batch =
          (fun addrs ->
            charge_alloc ();
            List.iter (fun a -> free := a :: !free) addrs);
        slab_base_of = (fun addr -> data_base + ((addr - data_base) / slab_size * slab_size));
      }
  in
  let t =
    {
      clk = clock;
      lat;
      dev;
      remote_log;
      remote_log_dev;
      cfg;
      falloc;
      handles = Hashtbl.create 8;
      meta_cursor = 64;
      next_ds = 1;
      remote_log_head = 0;
      pending_log_bytes = 0;
      ops_since_ship = 0;
    }
  in
  t_ref := Some t;
  t

let clock t = t.clk

let alloc_meta t len =
  let len = (len + 7) / 8 * 8 in
  let addr = t.meta_cursor in
  t.meta_cursor <- t.meta_cursor + len;
  if t.meta_cursor > meta_len then failwith "Local_store: meta region exhausted";
  addr

let register_ds t name =
  match Hashtbl.find_opt t.handles name with
  | Some h -> h
  | None ->
      let h =
        {
          Types.id = t.next_ds;
          root = alloc_meta t 8;
          lock = alloc_meta t 8;
          sn = alloc_meta t 8;
          ds_name = name;
        }
      in
      t.next_ds <- t.next_ds + 1;
      Hashtbl.replace t.handles name h;
      h

let lookup_ds t name = Hashtbl.find_opt t.handles name

let read ?hint t ~addr ~len =
  ignore hint;
  Clock.advance ~cause:Asym_obs.Attr.Nvm_media t.clk (Latency.nvm_read_cost t.lat len);
  Asym_nvm.Device.read t.dev ~addr ~len

let read_u64 t ?hint addr =
  ignore hint;
  Clock.advance ~cause:Asym_obs.Attr.Nvm_media t.clk (Latency.nvm_read_cost t.lat 8);
  Asym_nvm.Device.read_u64 t.dev ~addr

(* Ship the accumulated log to the remote NVM without waiting (Mojim-style
   asynchronous replication: the client only pays the posting cost). *)
let ship_log t =
  if t.pending_log_bytes > 0 then begin
    let len = min t.pending_log_bytes (1 lsl 20) in
    let cap = Asym_nvm.Device.capacity t.remote_log_dev in
    if t.remote_log_head + len > cap then t.remote_log_head <- 0;
    Asym_rdma.Verbs.write_unsignaled t.remote_log ~addr:t.remote_log_head (Bytes.create len);
    t.remote_log_head <- t.remote_log_head + len;
    t.pending_log_bytes <- 0
  end

let write t ~ds ~addr value =
  ignore ds;
  (* Store + clwb per touched line. *)
  Clock.advance ~cause:Asym_obs.Attr.Nvm_media t.clk
    (Latency.nvm_write_cost t.lat (Bytes.length value));
  Asym_nvm.Device.write t.dev ~addr value;
  t.pending_log_bytes <- t.pending_log_bytes + Bytes.length value + 13

let write_u64 t ~ds addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t ~ds ~addr b

let cas_u64 t ~ds addr ~expected ~desired =
  ignore ds;
  Clock.advance ~cause:Asym_obs.Attr.Nvm_media t.clk
    (Latency.nvm_write_cost t.lat 8 + t.lat.Latency.persist_fence_ns);
  Asym_nvm.Device.compare_and_swap t.dev ~addr ~expected ~desired

let malloc t size =
  Clock.advance t.clk t.lat.Latency.dram_ns;
  Front_alloc.alloc t.falloc size

let free t addr ~len =
  Clock.advance t.clk t.lat.Latency.dram_ns;
  Front_alloc.free t.falloc addr ~len

let op_begin t ~ds ~optype ~params =
  ignore ds;
  ignore optype;
  (* Mojim-style: the in-place NVM stores below are themselves durable;
     the operation record is only buffered (DRAM) for remote shipping. *)
  Clock.advance t.clk t.lat.Latency.dram_ns;
  t.pending_log_bytes <- t.pending_log_bytes + Bytes.length params + 13;
  0L

let op_end t ~ds =
  ignore ds;
  (* Commit fence for the in-place mutations. *)
  Clock.advance ~cause:Asym_obs.Attr.Nvm_media t.clk t.lat.Latency.persist_fence_ns;
  Clock.advance t.clk t.lat.Latency.cpu_op_ns;
  t.ops_since_ship <- t.ops_since_ship + 1;
  if t.ops_since_ship >= t.cfg.log_batch then begin
    ship_log t;
    t.ops_since_ship <- 0
  end

let flush t = ship_log t

let writer_lock t (h : Types.handle) =
  (* Local CAS. *)
  Clock.advance t.clk t.lat.Latency.dram_ns;
  ignore (Asym_nvm.Device.compare_and_swap t.dev ~addr:h.Types.lock ~expected:0L ~desired:1L)

let writer_unlock t (h : Types.handle) =
  Clock.advance t.clk t.lat.Latency.dram_ns;
  Asym_nvm.Device.write_u64 t.dev ~addr:h.Types.lock 0L

let read_section ?retry_on t (h : Types.handle) f =
  ignore retry_on;
  ignore h;
  ignore t;
  f ()

let cache_stats t =
  ignore t;
  (0, 0)

let invalidate_cache t = ignore t

let batch_size t = t.cfg.log_batch

let read_retries t =
  ignore t;
  0
