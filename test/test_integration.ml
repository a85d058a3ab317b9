(* Full-stack integration scenarios: several structures and clients on one
   back-end with mirrors, failures injected mid-workload, ring
   wrap-arounds, allocator exhaustion, and regression tests for the
   cross-structure ordering and deferred-reclamation bugs found during
   development. *)

open Asym_sim
open Asym_core
open Asym_structs

let check = Alcotest.check
let lat = Latency.default
let v s = Bytes.of_string s
let bytes_eq = Alcotest.testable (fun fmt b -> Fmt.string fmt (Bytes.to_string b)) Bytes.equal

module Bst = Pbst.Make (Client)
module Bpt = Pbptree.Make (Client)
module Hash = Phash.Make (Client)
module Stack = Pstack.Make (Client)
module Queue_ = Pqueue.Make (Client)
module Mv = Pmvbst.Make (Client)
module Skip = Pskiplist.Make (Client)

let mk_backend ?(name = "bk") ?(capacity = 32 * 1024 * 1024) ?(memlog_cap = 512 * 1024)
    ?(oplog_cap = 256 * 1024) () =
  Backend.create ~name ~max_sessions:6 ~memlog_cap ~oplog_cap ~slab_size:4096 ~capacity lat

let mk_client ?(cfg = Client.rcb ~batch_size:16 ()) ?(name = "fe") bk =
  Client.connect ~name cfg bk ~clock:(Clock.create ~name ())

(* -- regression: cross-structure block reuse within one batch ------------- *)

let test_cross_structure_reuse_order () =
  (* Two hash tables; a batch that frees a block in one and reallocates it
     in the other must replay in chronological order (the flush splits
     transactions at structure runs). *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:64 ()) bk in
  let a = Hash.attach ~nbuckets:8 fe ~name:"a" in
  let b = Hash.attach ~nbuckets:8 fe ~name:"b" in
  for round = 0 to 20 do
    for i = 0 to 7 do
      (* Same sizes so freed blocks get reused across tables. *)
      Hash.put a ~key:(Int64.of_int i) ~value:(v (Printf.sprintf "a%d-%d" round i));
      Hash.put b ~key:(Int64.of_int i) ~value:(v (Printf.sprintf "b%d-%d" round i));
      if i mod 3 = 0 then begin
        ignore (Hash.delete a ~key:(Int64.of_int i));
        Hash.put b ~key:(Int64.of_int (100 + i)) ~value:(v "filler")
      end
    done
  done;
  Client.flush fe;
  (* A fresh client sees exactly the durable state; verify via remote. *)
  let fe2 = mk_client ~name:"fe2" ~cfg:(Client.r ()) bk in
  let a2 = Hash.attach ~nbuckets:8 fe2 ~name:"a" in
  let b2 = Hash.attach ~nbuckets:8 fe2 ~name:"b" in
  for i = 0 to 7 do
    let expect_a = if i mod 3 = 0 then None else Some (v (Printf.sprintf "a20-%d" i)) in
    check (Alcotest.option bytes_eq) (Printf.sprintf "a[%d]" i) expect_a
      (Hash.get a2 ~key:(Int64.of_int i));
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "b[%d]" i)
      (Some (v (Printf.sprintf "b20-%d" i)))
      (Hash.get b2 ~key:(Int64.of_int i))
  done

(* -- regression: frees by uncovered ops must not free slabs durably ------- *)

let test_uncovered_free_does_not_leak_live_slabs () =
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:1024 ()) bk in
  let h = Hash.attach ~nbuckets:16 fe ~name:"h" in
  (* Durable base state. *)
  for i = 0 to 63 do
    Hash.put h ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Client.flush fe;
  (* A big batch of replacements (each frees the old node) left unflushed. *)
  for i = 0 to 63 do
    Hash.put h ~key:(Int64.of_int i) ~value:(v "replacement")
  done;
  Client.crash fe;
  (* Recovery + replay must restore every key. *)
  let ops = Client.recover fe in
  let h = Hash.attach ~nbuckets:16 fe ~name:"h" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Hash.handle h).Types.id (Hash.replay h);
  Registry.replay_all reg ops;
  Client.flush fe;
  for i = 0 to 63 do
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "key %d" i)
      (Some (v "replacement"))
      (Hash.get h ~key:(Int64.of_int i))
  done

(* -- multiple structures, one client, interleaved ops --------------------- *)

let test_many_structures_one_client () =
  let bk = mk_backend () in
  let fe = mk_client bk in
  let bst = Bst.attach fe ~name:"bst" in
  let bpt = Bpt.attach fe ~name:"bpt" in
  let h = Hash.attach ~nbuckets:64 fe ~name:"hash" in
  let st = Stack.attach fe ~name:"stack" in
  let q = Queue_.attach fe ~name:"queue" in
  let mv = Mv.attach fe ~name:"mv" in
  let sl = Skip.attach fe ~name:"skip" in
  for i = 0 to 99 do
    let key = Int64.of_int i in
    let value = v (string_of_int i) in
    Bst.put bst ~key ~value;
    Bpt.put bpt ~key ~value;
    Hash.put h ~key ~value;
    Stack.push st value;
    Queue_.enqueue q value;
    Mv.put mv ~key ~value;
    Skip.put sl ~key ~value
  done;
  Client.flush fe;
  check Alcotest.int "bst" 100 (List.length (Bst.to_list bst));
  check Alcotest.int "bpt" 100 (List.length (Bpt.to_list bpt));
  check Alcotest.int "hash" 100 (Hash.size h);
  check Alcotest.int "stack" 100 (Stack.size st);
  check Alcotest.int "queue" 100 (Queue_.size q);
  check Alcotest.int "mv" 100 (List.length (Mv.to_list mv));
  check Alcotest.int "skip" 100 (List.length (Skip.to_list sl));
  (* All seven share the session's rings and the allocator; recovery after
     a crash must replay into the right structures. *)
  for i = 100 to 119 do
    let key = Int64.of_int i in
    Bst.put bst ~key ~value:(v "x");
    Hash.put h ~key ~value:(v "y");
    Stack.push st (v "z")
  done;
  Client.crash fe;
  let ops = Client.recover fe in
  let bst = Bst.attach fe ~name:"bst" in
  let h = Hash.attach ~nbuckets:64 fe ~name:"hash" in
  let st = Stack.attach fe ~name:"stack" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Bst.handle bst).Types.id (Bst.replay bst);
  Registry.register reg ~ds:(Hash.handle h).Types.id (Hash.replay h);
  Registry.register reg ~ds:(Stack.handle st).Types.id (Stack.replay st);
  Registry.replay_all reg ops;
  Client.flush fe;
  check Alcotest.int "bst after recovery" 120 (List.length (Bst.to_list bst));
  check Alcotest.int "hash after recovery" 120 (Hash.size h);
  check Alcotest.int "stack after recovery" 120 (Stack.size st)

(* -- two writers on one structure (locked, flush-on-unlock) --------------- *)

let test_two_writers_locked () =
  let bk = mk_backend () in
  let cfg = { (Client.r ()) with Client.flush_on_unlock = true } in
  let fe1 = mk_client ~cfg ~name:"w1" bk in
  let fe2 = mk_client ~cfg ~name:"w2" bk in
  let opts = Ds_intf.shared_options in
  let t1 = Bst.attach ~opts fe1 ~name:"shared" in
  let t2 = Bst.attach ~opts fe2 ~name:"shared" in
  (* Each front-end writes its 50 keys as one co-simulated client; the
     writer lock's CAS word is all that keeps their puts apart. *)
  let writer fe t ~tag ~parity =
    Sched.client ~clock:(Client.clock fe) ~run:(fun () ->
        for i = 0 to 49 do
          Bst.put t ~key:(Int64.of_int ((2 * i) + parity)) ~value:(v (Printf.sprintf "%s-%d" tag i))
        done)
  in
  Sched.run [ writer fe1 t1 ~tag:"w1" ~parity:0; writer fe2 t2 ~tag:"w2" ~parity:1 ];
  (* 100 uncontended acquisitions would cost one CAS probe each. *)
  check Alcotest.bool "the writers spun on each other's holds" true
    (Client.lock_wait_ns fe1 + Client.lock_wait_ns fe2 > 100 * lat.Latency.rdma_atomic_ns);
  (* Both must observe the full merged structure. *)
  check Alcotest.int "w1 sees all" 100 (List.length (Bst.to_list t1));
  check Alcotest.int "w2 sees all" 100 (List.length (Bst.to_list t2));
  check (Alcotest.option bytes_eq) "w1 reads w2's key" (Some (v "w2-3")) (Bst.find t1 ~key:7L);
  check (Alcotest.option bytes_eq) "w2 reads w1's key" (Some (v "w1-4")) (Bst.find t2 ~key:8L)

(* -- MV readers during writer churn ---------------------------------------- *)

let test_mv_reader_consistency_under_churn () =
  let bk = mk_backend () in
  let writer = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) ~name:"w" bk in
  let reader = mk_client ~cfg:(Client.rc ()) ~name:"r" bk in
  let opts = { Ds_intf.shared = true; use_lock = false } in
  let wt = Mv.attach ~opts writer ~name:"mv" in
  let rt = Mv.attach ~opts reader ~name:"mv" in
  for i = 0 to 63 do
    Mv.put wt ~key:(Int64.of_int i) ~value:(v "v0")
  done;
  Client.flush writer;
  (* Interleaved churn and reads via the scheduler. *)
  let wrng = Asym_util.Rng.create ~seed:3L in
  let wn = ref 0 and rn = ref 0 and inconsistent = ref 0 in
  let wstep () =
    if !wn >= 400 then false
    else begin
      Mv.put wt ~key:(Int64.of_int (Asym_util.Rng.int wrng 64))
        ~value:(v (Printf.sprintf "v%d" !wn));
      incr wn;
      true
    end
  in
  let rstep () =
    (* Every key was inserted before churn began, so a read must never
       miss — any version the reader lands on contains all 64 keys. *)
    (match Mv.find rt ~key:(Int64.of_int (!rn mod 64)) with
    | Some _ -> ()
    | None -> incr inconsistent);
    incr rn;
    !rn < 400 || !wn < 400
  in
  Sched.run
    [
      Sched.client ~clock:(Client.clock writer) ~run:(fun () -> while wstep () do () done);
      Sched.client ~clock:(Client.clock reader) ~run:(fun () -> while rstep () do () done);
    ];
  check Alcotest.int "no reader ever missed a key" 0 !inconsistent

(* -- ring wrap stress -------------------------------------------------------- *)

let test_log_ring_wrap_stress () =
  (* Tiny rings force hundreds of wrap-arounds of both logs. *)
  let bk = mk_backend ~memlog_cap:8192 ~oplog_cap:4096 () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:4 ()) bk in
  let h = Hash.attach ~nbuckets:32 fe ~name:"h" in
  for i = 0 to 2000 do
    Hash.put h ~key:(Int64.of_int (i mod 50)) ~value:(v (string_of_int i))
  done;
  Client.flush fe;
  for i = 0 to 49 do
    let expect = 2000 - ((2000 - i) mod 50) in
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "key %d" i)
      (Some (v (string_of_int expect)))
      (Hash.get h ~key:(Int64.of_int i))
  done;
  (* Crash after the rings wrapped: recovery must still work. *)
  Hash.put h ~key:7L ~value:(v "final");
  Client.crash fe;
  let ops = Client.recover fe in
  let h = Hash.attach ~nbuckets:32 fe ~name:"h" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Hash.handle h).Types.id (Hash.replay h);
  Registry.replay_all reg ops;
  Client.flush fe;
  check (Alcotest.option bytes_eq) "post-wrap recovery" (Some (v "final")) (Hash.get h ~key:7L)

(* -- allocator exhaustion ------------------------------------------------------ *)

let test_out_of_nvm () =
  (* A 6 MiB device leaves only a few hundred slabs after the fixed areas. *)
  let bk =
    Backend.create ~name:"tiny" ~max_sessions:2 ~memlog_cap:(256 * 1024) ~oplog_cap:(128 * 1024)
      ~slab_size:4096 ~capacity:(6 * 1024 * 1024) lat
  in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let exhausted = ref false in
  (try
     for _ = 0 to 100_000 do
       ignore (Client.malloc fe 3000)
     done
   with Asym_core.Front_alloc.Out_of_nvm -> exhausted := true);
  check Alcotest.bool "raises Out_of_nvm" true !exhausted;
  (* The back-end stays functional: frees make room again. *)
  let addr = ref 0 in
  (try addr := Client.malloc fe 3000 with Asym_core.Front_alloc.Out_of_nvm -> ());
  if !addr = 0 then begin
    (* Free something through a fresh path and retry. *)
    check Alcotest.bool "exhaustion persisted" true (Backend.used_slabs bk > 0)
  end

(* The writer lock is released when a mutation raises: the operation
   frame unlocks through [Fun.protect]. Outside the co-simulation a
   leaked lock would make the second client's [writer_lock] fail loudly
   once its CAS probe budget runs out. *)
let test_lock_released_on_exception () =
  let bk =
    Backend.create ~name:"tiny" ~max_sessions:2 ~memlog_cap:(256 * 1024) ~oplog_cap:(128 * 1024)
      ~slab_size:4096 ~capacity:(6 * 1024 * 1024) lat
  in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Bpt.attach ~opts:Ds_intf.locked_options fe ~name:"bpt" in
  let h = Bpt.handle t in
  let value = Bytes.make 2000 'v' in
  let raised = ref false in
  (try
     for i = 0 to 100_000 do
       Bpt.put t ~key:(Int64.of_int i) ~value
     done
   with Front_alloc.Out_of_nvm -> raised := true);
  check Alcotest.bool "put ran out of NVM" true !raised;
  check Alcotest.int64 "lock word reads 0" 0L
    (Asym_nvm.Device.read_u64 (Backend.device bk) ~addr:h.Types.lock);
  let fe2 = mk_client ~cfg:(Client.r ()) ~name:"fe2" bk in
  Client.writer_lock fe2 h;
  Client.writer_unlock fe2 h

(* -- backend restart preserves naming and allocation --------------------------- *)

let test_restart_preserves_naming_and_bitmap () =
  let bk = mk_backend () in
  let fe = mk_client bk in
  let _ = Bst.attach fe ~name:"alpha" in
  let _ = Hash.attach ~nbuckets:32 fe ~name:"beta" in
  let used_before = Backend.used_slabs bk in
  Backend.crash bk;
  ignore (Backend.restart bk);
  check Alcotest.int "bitmap preserved" used_before (Backend.used_slabs bk);
  check Alcotest.int "nothing to replay" 0 (List.length (Client.recover fe));
  check Alcotest.bool "alpha still named" true (Client.lookup_ds fe "alpha" <> None);
  check Alcotest.bool "beta still named" true (Client.lookup_ds fe "beta" <> None);
  check Alcotest.bool "gamma unknown" true (Client.lookup_ds fe "gamma" = None)

(* -- mirrored full-stack scenario ---------------------------------------------- *)

let test_full_stack_with_mirror_failover () =
  let bk = mk_backend () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:(32 * 1024 * 1024) lat in
  Backend.attach_mirror bk m;
  let fe = mk_client bk in
  let bpt = Bpt.attach fe ~name:"index" in
  let q = Queue_.attach fe ~name:"wal" in
  for i = 0 to 299 do
    Bpt.put bpt ~key:(Int64.of_int i) ~value:(v (string_of_int i));
    if i mod 3 = 0 then Queue_.enqueue q (v (string_of_int i))
  done;
  Client.flush fe;
  Backend.crash bk;
  let bk' =
    match Asym_cluster.Failover.failover ~dead:bk lat with
    | Some b -> b
    | None -> Alcotest.fail "no successor"
  in
  check Alcotest.int "nothing to replay" 0 (List.length (Client.recover ~backend:bk' fe));
  let bpt = Bpt.attach fe ~name:"index" in
  let q = Queue_.attach fe ~name:"wal" in
  check Alcotest.int "index intact" 300 (List.length (Bpt.to_list bpt));
  check Alcotest.int "queue intact" 100 (Queue_.size q);
  check (Alcotest.option bytes_eq) "queue order preserved" (Some (v "0")) (Queue_.dequeue q);
  (* Range scans still work on the promoted replica. *)
  check Alcotest.int "range" 11 (List.length (Bpt.range bpt ~lo:100L ~hi:110L))

(* -- multi-back-end deployment (§4.3 / Multi_backend) -------------------------- *)

let mk_small_backend name =
  Backend.create ~name ~max_sessions:3 ~memlog_cap:(256 * 1024) ~oplog_cap:(128 * 1024)
    ~slab_size:4096 ~capacity:(12 * 1024 * 1024) lat

let test_multi_backend_put_get_route () =
  let backends = List.init 3 (fun i -> mk_small_backend (Printf.sprintf "bk%d" i)) in
  let clock = Clock.create ~name:"fe" () in
  let mb =
    Multi_backend.create ~name:"kv" ~clock ~backends
      ~attach:(fun c i -> Hash.attach ~nbuckets:64 c ~name:(Printf.sprintf "kv.%d" i))
      ()
  in
  check Alcotest.int "partitions" 3 (Multi_backend.npartitions mb);
  for i = 0 to 199 do
    let key = Int64.of_int i in
    Hash.put (Multi_backend.route mb key) ~key ~value:(v (string_of_int i))
  done;
  Multi_backend.flush_all mb;
  for i = 0 to 199 do
    let key = Int64.of_int i in
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "key %d" i)
      (Some (v (string_of_int i)))
      (Hash.get (Multi_backend.route mb key) ~key)
  done;
  (* Data must actually be spread: every back-end holds some slabs. *)
  List.iter
    (fun bk -> check Alcotest.bool "backend used" true (Backend.used_slabs bk > 0))
    backends

let test_multi_backend_partition_count_persisted () =
  let backends = List.init 4 (fun i -> mk_small_backend (Printf.sprintf "pk%d" i)) in
  let clock = Clock.create ~name:"fe" () in
  let attach c i = Hash.attach ~nbuckets:16 c ~name:(Printf.sprintf "p.%d" i) in
  let mb = Multi_backend.create ~name:"p" ~clock ~backends:(List.filteri (fun i _ -> i < 2) backends) ~attach () in
  check Alcotest.int "initial" 2 (Multi_backend.npartitions mb);
  (* Re-opening with MORE back-ends keeps the persisted count. *)
  let clock2 = Clock.create ~name:"fe2" () in
  let mb2 = Multi_backend.create ~name:"p" ~clock:clock2 ~backends ~attach () in
  check Alcotest.int "persisted count wins" 2 (Multi_backend.npartitions mb2)

let test_multi_backend_crash_recover () =
  let backends = List.init 2 (fun i -> mk_small_backend (Printf.sprintf "rk%d" i)) in
  let clock = Clock.create ~name:"fe" () in
  let tables = Array.make 2 None in
  let mb =
    Multi_backend.create
      ~cfg:(Client.rcb ~batch_size:32 ()) ~name:"r" ~clock ~backends
      ~attach:(fun c i ->
        let h = Hash.attach ~nbuckets:32 c ~name:(Printf.sprintf "r.%d" i) in
        tables.(i) <- Some h;
        h)
      ()
  in
  for i = 0 to 99 do
    let key = Int64.of_int i in
    Hash.put (Multi_backend.route mb key) ~key ~value:(v (string_of_int i))
  done;
  (* Crash with partial batches on both connections; recover each. *)
  Multi_backend.crash mb;
  Multi_backend.recover mb ~replay:(fun i ops ->
      match tables.(i) with
      | Some h ->
          let reg = Registry.create () in
          Registry.register reg ~ds:(Hash.handle h).Types.id (Hash.replay h);
          Registry.replay_all reg ops
      | None -> Alcotest.fail "missing table");
  Multi_backend.flush_all mb;
  for i = 0 to 99 do
    let key = Int64.of_int i in
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "key %d" i)
      (Some (v (string_of_int i)))
      (Hash.get (Multi_backend.route mb key) ~key)
  done

(* -- property: arbitrary interleavings over two structures --------------------- *)

let prop_two_structures_interleaved =
  QCheck.Test.make ~count:30 ~name:"interleaved ops over two structures vs models"
    QCheck.(small_list (triple bool (int_bound 40) (string_of_size Gen.(1 -- 12))))
    (fun ops ->
      let bk = mk_backend () in
      let fe = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) bk in
      let h = Hash.attach ~nbuckets:16 fe ~name:"h" in
      let b = Bst.attach fe ~name:"b" in
      let mh = Hashtbl.create 16 and mb = Hashtbl.create 16 in
      List.iter
        (fun (to_hash, k, s) ->
          let key = Int64.of_int k in
          let value = v s in
          if to_hash then begin
            Hash.put h ~key ~value;
            Hashtbl.replace mh key value
          end
          else begin
            Bst.put b ~key ~value;
            Hashtbl.replace mb key value
          end)
        ops;
      Client.flush fe;
      Hashtbl.fold (fun k value acc -> acc && Hash.get h ~key:k = Some value) mh true
      && Hashtbl.fold (fun k value acc -> acc && Bst.find b ~key:k = Some value) mb true)

let () =
  Alcotest.run "integration"
    [
      ( "regressions",
        [
          Alcotest.test_case "cross-structure reuse order" `Quick test_cross_structure_reuse_order;
          Alcotest.test_case "uncovered frees stay deferred" `Quick
            test_uncovered_free_does_not_leak_live_slabs;
        ] );
      ( "full-stack",
        [
          Alcotest.test_case "seven structures, one client" `Quick test_many_structures_one_client;
          Alcotest.test_case "two locked writers" `Quick test_two_writers_locked;
          Alcotest.test_case "mv readers under churn" `Quick
            test_mv_reader_consistency_under_churn;
          Alcotest.test_case "mirror failover with two structures" `Quick
            test_full_stack_with_mirror_failover;
        ] );
      ( "multi-backend",
        [
          Alcotest.test_case "put/get routing" `Quick test_multi_backend_put_get_route;
          Alcotest.test_case "partition count persisted" `Quick
            test_multi_backend_partition_count_persisted;
          Alcotest.test_case "crash + recover all partitions" `Quick
            test_multi_backend_crash_recover;
        ] );
      ( "stress",
        [
          Alcotest.test_case "log ring wrap stress" `Quick test_log_ring_wrap_stress;
          Alcotest.test_case "out of nvm" `Quick test_out_of_nvm;
          Alcotest.test_case "lock released on exception" `Quick
            test_lock_released_on_exception;
          Alcotest.test_case "restart preserves metadata" `Quick
            test_restart_preserves_naming_and_bitmap;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_two_structures_interleaved ]);
    ]
