(* Crash-consistency and replication tests: the five failure cases of
   paper §7.2, torn-write detection, replay idempotence, lock-ahead
   recovery and mirror promotion. *)

open Asym_sim
open Asym_core
open Asym_structs

let check = Alcotest.check
let lat = Latency.default
let v s = Bytes.of_string s
let bytes_eq = Alcotest.testable (fun fmt b -> Fmt.string fmt (Bytes.to_string b)) Bytes.equal

module Bst = Pbst.Make (Client)
module Hash = Phash.Make (Client)
module Stack = Pstack.Make (Client)
module Bpt = Pbptree.Make (Client)

let mk_backend ?(name = "bk") () =
  Backend.create ~name ~max_sessions:8 ~memlog_cap:(512 * 1024) ~oplog_cap:(256 * 1024)
    ~slab_size:4096 ~capacity:(16 * 1024 * 1024) lat

let mk_client ?(cfg = Client.rcb ~batch_size:16 ()) ?(name = "fe") bk =
  Client.connect ~name cfg bk ~clock:(Clock.create ~name ())

(* -- Case 1: front-end reader crash ------------------------------------- *)

let test_case1_reader_crash () =
  let bk = mk_backend () in
  let fe = mk_client bk in
  let t = Bst.attach fe ~name:"bst" in
  for i = 0 to 19 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Client.flush fe;
  Client.crash fe;
  let ops = Client.recover fe in
  check Alcotest.int "nothing to replay" 0 (List.length ops);
  (* Resume reads through naming. *)
  let t = Bst.attach fe ~name:"bst" in
  check (Alcotest.option bytes_eq) "data intact" (Some (v "7")) (Bst.find t ~key:7L)

(* -- Case 2: front-end writer crash -------------------------------------- *)

let test_case2a_writer_crash_all_flushed () =
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Bst.attach fe ~name:"bst" in
  for i = 0 to 9 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v "x")
  done;
  (* batch=1: every op flushed synchronously. *)
  Client.crash fe;
  let ops = Client.recover fe in
  check Alcotest.int "no unreplayed ops" 0 (List.length ops);
  let t = Bst.attach fe ~name:"bst" in
  check Alcotest.int "all ten present" 10 (List.length (Bst.to_list t))

let test_case2c_writer_crash_mid_batch () =
  (* Operation logs are durable per op; memory logs of the open batch die
     with the front-end. Recovery returns exactly the uncovered ops and
     re-executing them restores the full state. *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:64 ()) bk in
  let t = Bst.attach fe ~name:"bst" in
  for i = 0 to 29 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  (* batch 64 not reached: nothing flushed since the last attach flush. *)
  Client.crash fe;
  let ops = Client.recover fe in
  check Alcotest.bool "some ops to replay" true (List.length ops = 30);
  let t = Bst.attach fe ~name:"bst" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Bst.handle t).Types.id (Bst.replay t);
  Registry.replay_all reg ops;
  Client.flush fe;
  let l = Bst.to_list t in
  check Alcotest.int "all thirty restored" 30 (List.length l);
  check (Alcotest.option bytes_eq) "value ok" (Some (v "17")) (Bst.find t ~key:17L)

let test_case2_partial_batch_replay () =
  (* Crash with a batch partially flushed: covered ops must NOT be
     re-executed, uncovered ones must. *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:10 ()) bk in
  let t = Stack.attach fe ~name:"st" in
  for i = 0 to 24 do
    Stack.push t (v (string_of_int i))
  done;
  (* 25 pushes: 20 flushed (two batches), 5 pending. *)
  Client.crash fe;
  let ops = Client.recover fe in
  check Alcotest.int "five uncovered" 5 (List.length ops);
  let t = Stack.attach fe ~name:"st" in
  check Alcotest.int "twenty survived" 20 (Stack.size t);
  let reg = Registry.create () in
  Registry.register reg ~ds:(Stack.handle t).Types.id (Stack.replay t);
  Registry.replay_all reg ops;
  Client.flush fe;
  check Alcotest.int "all twenty-five" 25 (Stack.size t);
  check (Alcotest.option bytes_eq) "top is last push" (Some (v "24")) (Stack.peek t)

let test_case2b_torn_memlog_detected () =
  (* A torn transaction in the memory-log ring is detected by checksum on
     restart and reported; the intact prefix is preserved. *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let h = Client.register_ds fe "raw" in
  let addr = Client.malloc fe 64 in
  ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write_u64 fe ~ds:h.Types.id addr 1L;
  Client.op_end fe ~ds:h.Types.id;
  (* Hand-write a transaction into the ring and tear it. *)
  let ring_base, _ = Backend.memlog_ring bk ~session:(Client.session fe) in
  (* The memory-log head is the LPN: every flush is replayed before it returns. *)
  let slot = Layout.session_slot (Backend.layout bk) ~session:(Client.session fe) in
  let lpn = Asym_nvm.Device.read_u64 (Backend.device bk) ~addr:(slot + Layout.slot_lpn) in
  let tx =
    Log.Tx.encode
      {
        Log.Tx.ds = h.Types.id;
        op_hi = 99L;
        entries = [ Log.Mem_entry.make ~addr (Bytes.of_string "DEADBEEF") ];
      }
  in
  Asym_nvm.Crashpoint.tear_next ~keep:(Bytes.length tx - 3);
  Asym_nvm.Device.write (Backend.device bk) ~addr:(ring_base + Int64.to_int lpn) tx;
  Backend.crash bk;
  let statuses = Backend.restart bk in
  check Alcotest.bool "torn tail reported" true
    (List.mem (Client.session fe, Backend.Session_torn_tail) statuses);
  (* The committed value survived; the torn record was not applied. *)
  check Alcotest.int64 "prefix intact" 1L (Asym_nvm.Device.read_u64 (Backend.device bk) ~addr)

(* -- Case 3: back-end transient failure ----------------------------------- *)

let test_case3_backend_transient () =
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) bk in
  let t = Hash.attach ~nbuckets:64 fe ~name:"h" in
  for i = 0 to 15 do
    Hash.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  (* Backend dies; in-flight ops observe Failure_detected via the RNIC. *)
  Backend.crash bk;
  (try Hash.put t ~key:100L ~value:(v "lost") with Asym_rdma.Verbs.Failure_detected _ -> ());
  ignore (Backend.restart bk);
  let ops = Client.recover fe in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Hash.handle t).Types.id (Hash.replay t);
  Registry.replay_all reg ops;
  Client.flush fe;
  (* Everything acked before the crash must be present. *)
  for i = 0 to 15 do
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "key %d" i)
      (Some (v (string_of_int i)))
      (Hash.get t ~key:(Int64.of_int i))
  done;
  (* And the system accepts new writes. *)
  Hash.put t ~key:500L ~value:(v "after");
  check (Alcotest.option bytes_eq) "new write ok" (Some (v "after")) (Hash.get t ~key:500L)

let test_case3_restart_replay_idempotent () =
  (* Restarting twice (replaying the same LPN region) must not corrupt. *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Bst.attach fe ~name:"b" in
  for i = 0 to 9 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v "x")
  done;
  Backend.crash bk;
  ignore (Backend.restart bk);
  Backend.crash bk;
  ignore (Backend.restart bk);
  check Alcotest.int "nothing to replay" 0 (List.length (Client.recover fe));
  let t = Bst.attach fe ~name:"b" in
  check Alcotest.int "ten keys" 10 (List.length (Bst.to_list t))

(* -- Case 4: back-end permanent failure, mirror promotion ------------------ *)

let mirrored_backend () =
  let bk = mk_backend () in
  let m1 = Mirror.create ~name:"m1" ~kind:Mirror.Nvm_backed ~capacity:(16 * 1024 * 1024) lat in
  let m2 = Mirror.create ~name:"m2" ~kind:Mirror.Ssd_backed ~capacity:(16 * 1024 * 1024) lat in
  Backend.attach_mirror bk m1;
  Backend.attach_mirror bk m2;
  (bk, m1, m2)

let test_mirror_image_tracks_backend () =
  let bk, m1, _ = mirrored_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:4 ()) bk in
  let t = Bst.attach fe ~name:"b" in
  for i = 0 to 31 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Client.flush fe;
  (* The replicated regions must match byte for byte. *)
  let l = Backend.layout bk in
  let a = Asym_nvm.Device.snapshot (Backend.device bk) in
  let b = Asym_nvm.Device.snapshot (Mirror.device m1) in
  let region name lo len =
    check Alcotest.bool (name ^ " replicated") true
      (Bytes.sub a lo len = Bytes.sub b lo len)
  in
  region "naming" l.Layout.naming_base l.Layout.naming_len;
  region "bitmap" l.Layout.bitmap_base l.Layout.bitmap_len;
  region "data" l.Layout.data_base (l.Layout.n_slabs * l.Layout.slab_size)

(* After a drain, a live NVM mirror holds the back-end's whole image,
   each structure's sequence number included, so a promoted mirror keeps
   counting where the back-end stopped. A replayed frame is forwarded and
   charged but never stored: the mirror's memory-log ring pages are still
   the shared zero page, while the back-end's hold the frames the client
   wrote (and the drain zeroed). *)
let test_mirror_image_equals_backend () =
  let bk, m1, _ = mirrored_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:16 ()) bk in
  let t = Bpt.attach fe ~name:"b" in
  for i = 0 to 499 do
    Bpt.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Client.flush fe;
  let dev = Backend.device bk and mdev = Mirror.device m1 in
  check Alcotest.bool "sequence number bumped" true
    (Backend.seqno bk ~ds:(Bpt.handle t).Types.id > 0L);
  check Alcotest.bool "whole image equal" true
    (Bytes.equal (Asym_nvm.Device.snapshot dev) (Asym_nvm.Device.snapshot mdev));
  check Alcotest.bool "the mirror's ring never held a frame" true
    (Asym_nvm.Device.resident_pages mdev < Asym_nvm.Device.resident_pages dev)

let test_case4_promote_nvm_mirror () =
  let bk, m1, m2 = mirrored_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:4 ()) bk in
  let t = Bst.attach fe ~name:"b" in
  for i = 0 to 49 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Client.flush fe;
  Backend.crash bk;
  (* Vote: the NVM mirror wins over the SSD mirror. *)
  check Alcotest.bool "nvm mirror elected" true
    (match Asym_cluster.Failover.elect [ m2; m1 ] with Some m -> m == m1 | None -> false);
  let bk' = Asym_cluster.Failover.promote m1 lat in
  check Alcotest.int "nothing to replay" 0 (List.length (Client.recover ~backend:bk' fe));
  let t = Bst.attach fe ~name:"b" in
  check Alcotest.int "all keys on new backend" 50 (List.length (Bst.to_list t));
  check (Alcotest.option bytes_eq) "spot check" (Some (v "33")) (Bst.find t ~key:33L);
  (* The promoted back-end accepts new writes. *)
  Bst.put t ~key:1000L ~value:(v "new-era");
  check (Alcotest.option bytes_eq) "post-promotion write" (Some (v "new-era"))
    (Bst.find t ~key:1000L)

let test_case4_promote_ssd_mirror () =
  let bk, m1, m2 = mirrored_backend () in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Hash.attach ~nbuckets:32 fe ~name:"h" in
  for i = 0 to 19 do
    Hash.put t ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Backend.crash bk;
  Mirror.crash m1;
  (* Only the SSD mirror survives: rebuild onto a fresh NVM device. *)
  match Asym_cluster.Failover.elect [ m1; m2 ] with
  | Some m when m == m2 ->
      let bk' = Asym_cluster.Failover.promote m2 lat in
      check Alcotest.int "nothing to replay" 0 (List.length (Client.recover ~backend:bk' fe));
      let t = Hash.attach ~nbuckets:32 fe ~name:"h" in
      check (Alcotest.option bytes_eq) "rebuilt" (Some (v "11")) (Hash.get t ~key:11L)
  | _ -> Alcotest.fail "expected ssd mirror election"

let test_case4_failover_helper () =
  let bk, m1, _ = mirrored_backend () in
  let fe = mk_client bk in
  let t = Bst.attach fe ~name:"b" in
  Bst.put t ~key:1L ~value:(v "one");
  Client.flush fe;
  Backend.crash bk;
  match Asym_cluster.Failover.failover ~dead:bk lat with
  | None -> Alcotest.fail "no successor"
  | Some bk' ->
      ignore m1;
      check Alcotest.int "nothing to replay" 0 (List.length (Client.recover ~backend:bk' fe));
      let t = Bst.attach fe ~name:"b" in
      check (Alcotest.option bytes_eq) "survived" (Some (v "one")) (Bst.find t ~key:1L)

(* A front-end puts 100 keys with one NVM mirror attached; the back-end
   dies, the mirror is promoted, and the front-end recovers and replays
   what its memory logs did not cover: every key is on the successor,
   whatever path the front-end's writes took to the back-end. *)
let test_case4_promotion_keeps_every_key cfg () =
  let bk = mk_backend () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:(16 * 1024 * 1024) lat in
  Backend.attach_mirror bk m;
  let fe = mk_client ~cfg bk in
  let h = Hash.attach ~nbuckets:32 fe ~name:"h" in
  for i = 0 to 99 do
    Hash.put h ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  Backend.crash bk;
  let ops = Client.recover ~backend:(Asym_cluster.Failover.promote m lat) fe in
  let h = Hash.attach ~nbuckets:32 fe ~name:"h" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Hash.handle h).Types.id (Hash.replay h);
  Registry.replay_all reg ops;
  Client.flush fe;
  check Alcotest.(list int) "no key missing" []
    (List.filter
       (fun i -> Hash.get h ~key:(Int64.of_int i) <> Some (v (string_of_int i)))
       (List.init 100 Fun.id))

(* -- Case 5: mirror crash --------------------------------------------------- *)

let test_case5_mirror_crash_service_continues () =
  let bk, m1, m2 = mirrored_backend () in
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Bst.attach fe ~name:"b" in
  Bst.put t ~key:1L ~value:(v "before");
  Mirror.crash m1;
  (* Replication to the dead mirror is skipped; service continues. *)
  Bst.put t ~key:2L ~value:(v "during");
  check (Alcotest.option bytes_eq) "writes continue" (Some (v "during")) (Bst.find t ~key:2L);
  (* The surviving mirror can still take over. *)
  Backend.crash bk;
  check Alcotest.bool "m2 elected" true
    (match Asym_cluster.Failover.elect [ m1; m2 ] with Some m -> m == m2 | None -> false)

let test_mirror_replication_counters () =
  let bk = mk_backend () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:(16 * 1024 * 1024) lat in
  Backend.attach_mirror bk m;
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Bst.attach fe ~name:"b" in
  (* Session setup already replicated naming/metadata writes; the data
     operations below must add to the stream. *)
  let w0 = Mirror.writes_replicated m in
  for i = 0 to 9 do
    Bst.put t ~key:(Int64.of_int i) ~value:(v "x")
  done;
  check Alcotest.bool "log stream flowed to the mirror" true (Mirror.writes_replicated m > w0);
  check Alcotest.bool "bytes accounted" true (Mirror.bytes_replicated m > 0)

let test_crashed_mirror_skipped_then_restarted () =
  let bk = mk_backend () in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:(16 * 1024 * 1024) lat in
  Backend.attach_mirror bk m;
  let fe = mk_client ~cfg:(Client.r ()) bk in
  let t = Bst.attach fe ~name:"b" in
  Mirror.crash m;
  let w0 = Mirror.writes_replicated m in
  let image0 = Asym_nvm.Device.snapshot (Mirror.device m) in
  Bst.put t ~key:1L ~value:(v "lost-to-mirror");
  Client.flush fe;
  check Alcotest.int "crashed mirror receives nothing" w0 (Mirror.writes_replicated m);
  check Alcotest.bool "crashed mirror's image unchanged" true
    (Bytes.equal image0 (Asym_nvm.Device.snapshot (Mirror.device m)));
  Mirror.restart m;
  Bst.put t ~key:2L ~value:(v "replicated-again");
  check Alcotest.bool "restarted mirror receives again" true (Mirror.writes_replicated m > w0)

(* -- keepAlive ---------------------------------------------------------------- *)

let test_keepalive_lease_expiry () =
  let ka = Asym_cluster.Keepalive.create ~lease:(Simtime.ms 10) (Asym_util.Rng.create ~seed:1L) in
  Asym_cluster.Keepalive.register ka "backend" ~now:0;
  Asym_cluster.Keepalive.register ka "fe1" ~now:0;
  check Alcotest.bool "alive after register" true
    (Asym_cluster.Keepalive.alive ka "backend" ~now:(Simtime.ms 5));
  Asym_cluster.Keepalive.renew ka "backend" ~now:(Simtime.ms 8);
  check Alcotest.bool "alive after renew" true
    (Asym_cluster.Keepalive.alive ka "backend" ~now:(Simtime.ms 15));
  check Alcotest.bool "fe1 expired" false
    (Asym_cluster.Keepalive.alive ka "fe1" ~now:(Simtime.ms 15));
  check
    (Alcotest.list Alcotest.string)
    "crashed list" [ "fe1" ]
    (Asym_cluster.Keepalive.crashed ka ~now:(Simtime.ms 15))

let test_keepalive_unknown_node_dead () =
  let ka = Asym_cluster.Keepalive.create (Asym_util.Rng.create ~seed:2L) in
  check Alcotest.bool "unknown is dead" false (Asym_cluster.Keepalive.alive ka "ghost" ~now:0)

let test_keepalive_majority_skew () =
  (* With skew, replicas disagree near the boundary; the majority rule
     still gives a definite verdict. *)
  let ka =
    Asym_cluster.Keepalive.create ~replicas:5 ~lease:(Simtime.ms 1) ~skew:(Simtime.us 200)
      (Asym_util.Rng.create ~seed:3L)
  in
  Asym_cluster.Keepalive.register ka "n" ~now:0;
  check Alcotest.bool "well before expiry" true
    (Asym_cluster.Keepalive.alive ka "n" ~now:(Simtime.us 500));
  check Alcotest.bool "well after expiry" false
    (Asym_cluster.Keepalive.alive ka "n" ~now:(Simtime.ms 3))

let test_keepalive_exact_majority_boundary () =
  (* With an even ensemble a split vote is not a majority: the node is
     declared crashed only when strictly more than half the replicas saw
     its lease expire. Reconstruct the per-replica skews with a twin rng
     to place the probe time between the 2nd and 3rd observation. *)
  let seed = 5L and lease = Simtime.ms 10 and skew = Simtime.ms 4 in
  let ka =
    Asym_cluster.Keepalive.create ~replicas:4 ~lease ~skew (Asym_util.Rng.create ~seed)
  in
  let twin = Asym_util.Rng.create ~seed in
  Asym_cluster.Keepalive.register ka "n" ~now:0;
  let delays = Array.init 4 (fun _ -> Asym_util.Rng.int twin (skew + 1)) in
  Array.sort compare delays;
  Alcotest.(check bool) "seed yields distinct middle skews" true (delays.(1) < delays.(2));
  (* Exactly replicas 0 and 1 (by expiry order) have expired here. *)
  let tie = delays.(2) + lease in
  check Alcotest.bool "2 of 4 expired: tie is not a majority" true
    (Asym_cluster.Keepalive.alive ka "n" ~now:tie);
  check Alcotest.bool "3 of 4 expired: strict majority declares the crash" false
    (Asym_cluster.Keepalive.alive ka "n" ~now:(delays.(2) + lease + 1))

let test_keepalive_renewal_at_exact_expiry () =
  (* Expiry is strict: a renewal (or probe) landing exactly at
     [seen + lease] still counts as alive — the lease covers its own last
     instant. Zero skew makes every replica agree. *)
  let lease = Simtime.ms 10 in
  let ka = Asym_cluster.Keepalive.create ~lease ~skew:0 (Asym_util.Rng.create ~seed:6L) in
  Asym_cluster.Keepalive.register ka "n" ~now:0;
  check Alcotest.bool "alive at the exact last lease instant" true
    (Asym_cluster.Keepalive.alive ka "n" ~now:lease);
  Asym_cluster.Keepalive.renew ka "n" ~now:lease;
  check Alcotest.bool "renewal at expiry extends a full lease" true
    (Asym_cluster.Keepalive.alive ka "n" ~now:(2 * lease));
  check Alcotest.bool "one instant past the renewed lease is dead" false
    (Asym_cluster.Keepalive.alive ka "n" ~now:((2 * lease) + 1))

let test_keepalive_forget_mid_epoch () =
  (* Case 5: a crashed mirror is administratively dropped mid-epoch. It
     must vanish from the group without ever appearing in the crashed
     list, and re-registering starts a fresh lease. *)
  let lease = Simtime.ms 10 in
  let ka = Asym_cluster.Keepalive.create ~lease ~skew:0 (Asym_util.Rng.create ~seed:7L) in
  Asym_cluster.Keepalive.register ka "backend" ~now:0;
  Asym_cluster.Keepalive.register ka "mirror" ~now:0;
  Asym_cluster.Keepalive.renew ka "backend" ~now:(Simtime.ms 5);
  Asym_cluster.Keepalive.forget ka "mirror";
  check
    (Alcotest.list Alcotest.string)
    "only the survivor remains" [ "backend" ]
    (Asym_cluster.Keepalive.members ka);
  check Alcotest.bool "forgotten node is not alive" false
    (Asym_cluster.Keepalive.alive ka "mirror" ~now:(Simtime.ms 6));
  check
    (Alcotest.list Alcotest.string)
    "forgotten node is not reported crashed either" []
    (Asym_cluster.Keepalive.crashed ka ~now:(Simtime.ms 30 + 1)
    |> List.filter (fun n -> n = "mirror"));
  Asym_cluster.Keepalive.register ka "mirror" ~now:(Simtime.ms 20);
  check Alcotest.bool "re-registered with a fresh lease" true
    (Asym_cluster.Keepalive.alive ka "mirror" ~now:(Simtime.ms 25))

(* -- abandoned locks ----------------------------------------------------------- *)

(* The locks a session's op log names as held, walked from the persisted
   tail straight off the back-end's media: what recovery reads. *)
let held_locks bk fe =
  let dev = Backend.device bk and session = Client.session fe in
  let slot = Layout.session_slot (Backend.layout bk) ~session in
  let tail = Int64.to_int (Asym_nvm.Device.read_u64 dev ~addr:(slot + Layout.slot_tail)) in
  let ring_base, cap = Backend.oplog_ring bk ~session in
  let read ~pos ~len = Asym_nvm.Device.read dev ~addr:(ring_base + pos) ~len in
  let held = ref [] in
  ignore
    (Log.walk ~scan:Log.Op_entry.scan ~read ~cap ~from:tail (fun op ~pos:_ ~len:_ ->
         held := Log.track_lock !held op));
  !held

let test_abandoned_lock_released_on_recovery () =
  let bk = mk_backend () in
  let fe1 = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) ~name:"fe1" bk in
  let h = Client.register_ds fe1 "locked-ds" in
  Client.writer_lock fe1 h;
  (* fe1 dies while holding the writer lock. *)
  Client.crash fe1;
  check
    (Alcotest.list Alcotest.int)
    "lock-ahead log identifies the lock" [ h.Types.lock ]
    (held_locks bk fe1);
  ignore (Client.recover fe1);
  check
    (Alcotest.list Alcotest.int)
    "released after recovery" []
    (held_locks bk fe1);
  (* Another writer can now take the lock without waiting forever. *)
  let fe2 = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) ~name:"fe2" bk in
  let h2 = Client.register_ds fe2 "locked-ds" in
  Client.writer_lock fe2 h2;
  Client.writer_unlock fe2 h2

(* -- torn op log entry ----------------------------------------------------------- *)

let test_torn_oplog_entry_ignored () =
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:64 ()) bk in
  let t = Stack.attach fe ~name:"s" in
  Stack.push t (v "acked");
  (* A push whose op-log write tears: the client never got the ack, so the
     operation never happened. Simulate by tearing the push's first
     write (the op-log record of a second push). *)
  Asym_nvm.Crashpoint.tear_next ~keep:5;
  Stack.push t (v "torn-victim");
  Client.crash fe;
  let ops = Client.recover fe in
  (* Only the first push is recoverable. *)
  check Alcotest.int "one replayable op" 1 (List.length ops);
  let t = Stack.attach fe ~name:"s" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Stack.handle t).Types.id (Stack.replay t);
  Registry.replay_all reg ops;
  Client.flush fe;
  check (Alcotest.option bytes_eq) "acked push survived" (Some (v "acked")) (Stack.peek t);
  check Alcotest.int "exactly one element" 1 (Stack.size t)

(* Re-execute what recovery returned on a freshly attached stack and make
   it durable, as an application restarting after a crash would. *)
let recover_stack ?backend fe ~name =
  let ops = Client.recover ?backend fe in
  let t = Stack.attach fe ~name in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Stack.handle t).Types.id (Stack.replay t);
  Registry.replay_all reg ops;
  Client.flush fe;
  (t, ops)

let test_ack_after_torn_oplog_survives () =
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:64 ()) bk in
  let t = Stack.attach fe ~name:"s" in
  Stack.push t (v "flushed");
  Client.flush fe;
  Asym_nvm.Crashpoint.tear_next ~keep:5;
  Stack.push t (v "torn-victim");
  Client.crash fe;
  let t, ops = recover_stack fe ~name:"s" in
  check Alcotest.int "nothing to replay" 0 (List.length ops);
  (* The next record must land on the torn bytes, not past them: a walk
     from the tail stops at the first torn frame. *)
  Stack.push t (v "acked");
  Client.crash fe;
  let t, ops = recover_stack fe ~name:"s" in
  check (Alcotest.list bytes_eq) "the acked push is replayed" [ v "acked" ]
    (List.map (fun op -> op.Log.Op_entry.params) ops);
  check (Alcotest.list bytes_eq) "stack" [ v "acked"; v "flushed" ] (Stack.to_list t)

let test_flushed_lock_holder_found () =
  (* A batch-1 writer flushes inside its critical section; the covered
     acquire record must still tell recovery that the lock is held. *)
  let bk = mk_backend () in
  let fe1 = mk_client ~cfg:(Client.r ()) ~name:"fe1" bk in
  let h = Client.register_ds fe1 "locked-ds" in
  let addr = Client.malloc fe1 64 in
  Client.writer_lock fe1 h;
  ignore (Client.op_begin fe1 ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write_u64 fe1 ~ds:h.Types.id addr 7L;
  Client.op_end fe1 ~ds:h.Types.id;
  check Alcotest.int "the op was flushed" 1 (Client.flushes fe1);
  Client.crash fe1;
  check
    (Alcotest.list Alcotest.int)
    "lock-ahead log identifies the lock" [ h.Types.lock ]
    (held_locks bk fe1);
  check Alcotest.int "nothing to replay" 0 (List.length (Client.recover fe1));
  let dev = Backend.device bk in
  check Alcotest.int64 "lock word released" 0L
    (Asym_nvm.Device.read_u64 dev ~addr:h.Types.lock);
  check Alcotest.int64 "flushed write survived" 7L (Asym_nvm.Device.read_u64 dev ~addr);
  let fe2 = mk_client ~cfg:(Client.r ()) ~name:"fe2" bk in
  let h2 = Client.register_ds fe2 "locked-ds" in
  Client.writer_lock fe2 h2;
  Client.writer_unlock fe2 h2

(* Rings of 4 KiB, so that a few hundred records lap them. *)
let small_ring_backend ~sessions =
  Backend.create ~name:"bk" ~max_sessions:sessions ~memlog_cap:(64 * 1024) ~oplog_cap:4096
    ~slab_size:4096 ~capacity:(8 * 1024 * 1024) lat

let test_lapped_oplog_recovers () =
  let bk = small_ring_backend ~sessions:1 in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:8 ()) bk in
  let t = ref (Stack.attach fe ~name:"s") in
  let pushed = ref 0 in
  for round = 1 to 300 do
    for _ = 1 to 4 do
      Stack.push !t (v (string_of_int !pushed));
      incr pushed
    done;
    if round mod 5 = 0 then begin
      Client.crash fe;
      t := fst (recover_stack fe ~name:"s")
    end
  done;
  check (Alcotest.list bytes_eq) "every acknowledged push, in order"
    (List.init !pushed (fun i -> v (string_of_int (!pushed - 1 - i))))
    (Stack.to_list !t)

let test_overrun_oplog_recovery_terminates () =
  (* A front-end that overran its own uncovered records leaves equal-sized
     records lapping a 4 KiB ring, the newer lap overwriting the older one
     record for record, so the ring holds no zero byte to stop at. (A
     front-end now flushes before that can happen, so the ring is laid
     out here by hand: 157 records and a wrap marker, then 43 more from
     the ring base.) Recovery cannot replay such a log, but it must come
     back (here from the strictly-increasing opnum check) instead of
     walking the ring forever. *)
  let bk = small_ring_backend ~sessions:1 in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:1000 ()) bk in
  let base, cap = Backend.oplog_ring bk ~session:(Client.session fe) in
  let dev = Backend.device bk in
  let record i =
    Log.Op_entry.encode
      { Log.Op_entry.ds = 1; opnum = Int64.of_int (i + 1); optype = 1; params = v "0000" }
  in
  let len = Bytes.length (record 0) in
  let per_lap = (cap - 1) / len in
  for i = 0 to 199 do
    Asym_nvm.Device.write dev ~addr:(base + (i mod per_lap * len)) (record i)
  done;
  Asym_nvm.Device.write dev ~addr:(base + (per_lap * len)) Log.wrap_marker;
  Client.crash fe;
  match Client.recover fe with
  | ops -> check Alcotest.bool "at most one lap of ops" true (List.length ops < 200)
  | exception Assert_failure _ -> ()

let test_oplog_wrap_marker_stays_in_ring () =
  let bk = small_ring_backend ~sessions:2 in
  let cfg = Client.rcb ~batch_size:1000 () in
  let fe0 = mk_client ~cfg ~name:"fe0" bk in
  let fe1 = mk_client ~cfg ~name:"fe1" bk in
  let append fe (h : Types.handle) len =
    ignore (Client.op_begin fe ~ds:h.Types.id ~optype:1 ~params:(Bytes.make len 'p'));
    Client.op_end fe ~ds:h.Types.id
  in
  append fe1 (Client.register_ds fe1 "d1") 8;
  let base1, _ = Backend.oplog_ring bk ~session:(Client.session fe1) in
  let first_tag () =
    Bytes.get_uint8 (Asym_nvm.Device.read (Backend.device bk) ~addr:base1 ~len:1) 0
  in
  check Alcotest.int "fe1's first record" 0xA7 (first_tag ());
  let base0, cap = Backend.oplog_ring bk ~session:(Client.session fe0) in
  check Alcotest.int "fe1's ring follows fe0's" (base0 + cap) base1;
  (* fe0: a 30-byte record, then one sized to end exactly at its ring's
     end, then one more. *)
  let h0 = Client.register_ds fe0 "d0" in
  append fe0 h0 8;
  append fe0 h0 (cap - 30 - 22);
  append fe0 h0 8;
  check Alcotest.int "fe1's first record is intact" 0xA7 (first_tag ())

let test_promoted_mirror_walks_past_the_wrap () =
  (* 170 pushes at batch 48 on a 4 KiB op ring: the 26 uncovered ones
     span the ring's wrap. The promoted mirror must hold the wrap marker
     the front-end wrote, or its walk stops at a zero byte there. *)
  let bk = small_ring_backend ~sessions:1 in
  let m = Mirror.create ~name:"m" ~kind:Mirror.Nvm_backed ~capacity:(8 * 1024 * 1024) lat in
  Backend.attach_mirror bk m;
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:48 ()) bk in
  let t = Stack.attach fe ~name:"s" in
  for i = 0 to 169 do
    Stack.push t (v (Printf.sprintf "%04d" i))
  done;
  Backend.crash bk;
  let t, ops = recover_stack ~backend:(Asym_cluster.Failover.promote m lat) fe ~name:"s" in
  check Alcotest.int "every uncovered push" 26 (List.length ops);
  check Alcotest.int "every push" 170 (Stack.size t)

let test_oplog_flush_before_overrun () =
  (* 300 pushes at batch 1000 on a 4 KiB op ring: the front-end must
     flush before its uncovered records lap the ring, or GC reclaims
     records recovery still needs. *)
  let bk = small_ring_backend ~sessions:1 in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:1000 ()) bk in
  let t = Stack.attach fe ~name:"s" in
  for i = 0 to 299 do
    Stack.push t (v (Printf.sprintf "%04d" i))
  done;
  Client.crash fe;
  let t, _ = recover_stack fe ~name:"s" in
  check Alcotest.int "every push" 300 (Stack.size t);
  check (Alcotest.option bytes_eq) "top is the last push" (Some (v "0299")) (Stack.peek t)

(* -- crash + replay for each remaining structure kind --------------------------- *)

module Skip = Pskiplist.Make (Client)
module Mv = Pmvbst.Make (Client)
module Mvb = Pmvbptree.Make (Client)
module Q = Pqueue.Make (Client)

let crash_replay_roundtrip (type a) ~name
    ~(attach : Client.t -> a)
    ~(put : a -> int64 -> bytes -> unit)
    ~(find : a -> int64 -> bytes option)
    ~(replay : a -> Log.Op_entry.t -> unit)
    ~(ds_of : a -> Types.handle) () =
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:32 ()) bk in
  let t = attach fe in
  (* Shuffled keys so the unbalanced trees stay shallow. *)
  let keys = Array.init 80 (fun i -> Int64.of_int (7 * i)) in
  Asym_util.Rng.shuffle (Asym_util.Rng.create ~seed:5L) keys;
  Array.iter (fun k -> put t k (v (Int64.to_string k))) keys;
  Client.crash fe;
  let ops = Client.recover fe in
  check Alcotest.bool (name ^ ": some ops uncovered") true (List.length ops > 0);
  let t = attach fe in
  let reg = Registry.create () in
  Registry.register reg ~ds:(ds_of t).Types.id (replay t);
  Registry.replay_all reg ops;
  Client.flush fe;
  Array.iter
    (fun k ->
      check (Alcotest.option bytes_eq)
        (Printf.sprintf "%s key %Ld" name k)
        (Some (v (Int64.to_string k)))
        (find t k))
    keys

let test_crash_replay_bptree () =
  crash_replay_roundtrip ~name:"bptree"
    ~attach:(fun fe -> Bpt.attach fe ~name:"bpt")
    ~put:(fun t key value -> Bpt.put t ~key ~value)
    ~find:(fun t key -> Bpt.find t ~key)
    ~replay:Bpt.replay ~ds_of:Bpt.handle ()

let test_crash_replay_skiplist () =
  crash_replay_roundtrip ~name:"skiplist"
    ~attach:(fun fe -> Skip.attach fe ~name:"sl")
    ~put:(fun t key value -> Skip.put t ~key ~value)
    ~find:(fun t key -> Skip.find t ~key)
    ~replay:Skip.replay ~ds_of:Skip.handle ()

let test_crash_replay_mvbst () =
  crash_replay_roundtrip ~name:"mv-bst"
    ~attach:(fun fe -> Mv.attach fe ~name:"mv")
    ~put:(fun t key value -> Mv.put t ~key ~value)
    ~find:(fun t key -> Mv.find t ~key)
    ~replay:Mv.replay ~ds_of:Mv.handle ()

let test_crash_replay_mvbptree () =
  crash_replay_roundtrip ~name:"mv-bpt"
    ~attach:(fun fe -> Mvb.attach fe ~name:"mvb")
    ~put:(fun t key value -> Mvb.put t ~key ~value)
    ~find:(fun t key -> Mvb.find t ~key)
    ~replay:Mvb.replay ~ds_of:Mvb.handle ()

let test_crash_replay_queue_order () =
  (* FIFO order must survive a crash + replay. *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:16 ()) bk in
  let q = Q.attach fe ~name:"q" in
  for i = 0 to 39 do
    Q.enqueue q (v (string_of_int i))
  done;
  Client.crash fe;
  let ops = Client.recover fe in
  let q = Q.attach fe ~name:"q" in
  let reg = Registry.create () in
  Registry.register reg ~ds:(Q.handle q).Types.id (Q.replay q);
  Registry.replay_all reg ops;
  Client.flush fe;
  check Alcotest.int "size" 40 (Q.size q);
  for i = 0 to 39 do
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "dequeue %d" i)
      (Some (v (string_of_int i)))
      (Q.dequeue q)
  done

(* -- property: random crash points never lose acked, flushed state ------------- *)

let prop_crash_recover_consistent =
  QCheck.Test.make ~count:25 ~name:"crash at random op: recovery restores all acked ops"
    QCheck.(pair (int_range 1 40) (int_bound 1000))
    (fun (crash_after, seed) ->
      let bk = mk_backend () in
      let fe = mk_client ~cfg:(Client.rcb ~batch_size:7 ()) bk in
      let t = Hash.attach ~nbuckets:32 fe ~name:"h" in
      let rng = Asym_util.Rng.create ~seed:(Int64.of_int seed) in
      let model = Hashtbl.create 16 in
      for i = 0 to crash_after - 1 do
        let key = Int64.of_int (Asym_util.Rng.int rng 20) in
        if Asym_util.Rng.int rng 4 = 0 then begin
          Hashtbl.remove model key;
          ignore (Hash.delete t ~key)
        end
        else begin
          let value = v (string_of_int i) in
          Hashtbl.replace model key value;
          Hash.put t ~key ~value
        end
      done;
      Client.crash fe;
      let ops = Client.recover fe in
      let t = Hash.attach ~nbuckets:32 fe ~name:"h" in
      let reg = Registry.create () in
      Registry.register reg ~ds:(Hash.handle t).Types.id (Hash.replay t);
      Registry.replay_all reg ops;
      Client.flush fe;
      Hashtbl.fold (fun k value acc -> acc && Hash.get t ~key:k = Some value) model true)

let () =
  Alcotest.run "recovery"
    [
      ("case1-reader", [ Alcotest.test_case "reader crash" `Quick test_case1_reader_crash ]);
      ( "case2-writer",
        [
          Alcotest.test_case "all flushed" `Quick test_case2a_writer_crash_all_flushed;
          Alcotest.test_case "mid batch" `Quick test_case2c_writer_crash_mid_batch;
          Alcotest.test_case "partial batch" `Quick test_case2_partial_batch_replay;
          Alcotest.test_case "torn memlog detected" `Quick test_case2b_torn_memlog_detected;
        ] );
      ( "case3-backend-transient",
        [
          Alcotest.test_case "restart and resume" `Quick test_case3_backend_transient;
          Alcotest.test_case "replay idempotent" `Quick test_case3_restart_replay_idempotent;
        ] );
      ( "case4-promotion",
        [
          Alcotest.test_case "mirror tracks backend" `Quick test_mirror_image_tracks_backend;
          Alcotest.test_case "mirror image equals backend" `Quick
            test_mirror_image_equals_backend;
          Alcotest.test_case "promote nvm mirror" `Quick test_case4_promote_nvm_mirror;
          Alcotest.test_case "promote ssd mirror" `Quick test_case4_promote_ssd_mirror;
          Alcotest.test_case "failover helper" `Quick test_case4_failover_helper;
          Alcotest.test_case "naive promotion keeps every key" `Quick
            (test_case4_promotion_keeps_every_key (Client.naive ()));
          Alcotest.test_case "r promotion keeps every key" `Quick
            (test_case4_promotion_keeps_every_key (Client.r ()));
          Alcotest.test_case "rcb promotion keeps every key" `Quick
            (test_case4_promotion_keeps_every_key (Client.rcb ~batch_size:16 ()));
        ] );
      ( "case5-mirror",
        [
          Alcotest.test_case "service continues" `Quick test_case5_mirror_crash_service_continues;
          Alcotest.test_case "replication counters" `Quick test_mirror_replication_counters;
          Alcotest.test_case "crashed mirror skipped/restarted" `Quick
            test_crashed_mirror_skipped_then_restarted;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "lease expiry" `Quick test_keepalive_lease_expiry;
          Alcotest.test_case "unknown node" `Quick test_keepalive_unknown_node_dead;
          Alcotest.test_case "majority with skew" `Quick test_keepalive_majority_skew;
          Alcotest.test_case "exact-majority boundary" `Quick
            test_keepalive_exact_majority_boundary;
          Alcotest.test_case "renewal at exact expiry" `Quick
            test_keepalive_renewal_at_exact_expiry;
          Alcotest.test_case "node removal mid-epoch" `Quick test_keepalive_forget_mid_epoch;
        ] );
      ( "locks",
        [ Alcotest.test_case "abandoned lock released" `Quick test_abandoned_lock_released_on_recovery ]
      );
      ( "oplog",
        [
          Alcotest.test_case "torn op ignored" `Quick test_torn_oplog_entry_ignored;
          Alcotest.test_case "ack after a torn op survives" `Quick
            test_ack_after_torn_oplog_survives;
          Alcotest.test_case "flushed lock holder found" `Quick test_flushed_lock_holder_found;
          Alcotest.test_case "lapped ring recovers" `Quick test_lapped_oplog_recovers;
          Alcotest.test_case "overrun ring recovery terminates" `Quick
            test_overrun_oplog_recovery_terminates;
          Alcotest.test_case "wrap marker stays in the ring" `Quick
            test_oplog_wrap_marker_stays_in_ring;
          Alcotest.test_case "promoted mirror walks past the wrap" `Quick
            test_promoted_mirror_walks_past_the_wrap;
          Alcotest.test_case "flush before the op log overruns" `Quick
            test_oplog_flush_before_overrun;
        ] );
      ( "crash-replay-per-structure",
        [
          Alcotest.test_case "bptree" `Quick test_crash_replay_bptree;
          Alcotest.test_case "skiplist" `Quick test_crash_replay_skiplist;
          Alcotest.test_case "mv-bst" `Quick test_crash_replay_mvbst;
          Alcotest.test_case "mv-bptree" `Quick test_crash_replay_mvbptree;
          Alcotest.test_case "queue order" `Quick test_crash_replay_queue_order;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_crash_recover_consistent ]);
    ]
