(* A durable work queue shared by a producer and a consumer front-end,
   co-simulated with the virtual-time scheduler. The producer crashes
   mid-burst and recovers; no acknowledged message is lost and the
   consumer drains everything exactly once.

   Run with: dune exec examples/message_queue.exe *)

open Asym_core
open Asym_sim
module Q = Asym_structs.Pqueue.Make (Client)

let messages = 2_000

let () =
  Fmt.pr "== Durable message queue: producer + consumer front-ends ==@.@.";
  let backend = Backend.create ~name:"backend" ~capacity:(64 * 1024 * 1024) Latency.default in
  (* Producer AND consumer mutate the queue, so both are writers: they
     must take the exclusive lock per operation and flush their memory
     logs before releasing it, and neither may cache queue state (the
     paper notes shared queues/stacks forgo the single-writer fast path
     and its batching because of exactly this contention). *)
  let shared_cfg = { (Client.r ()) with Client.flush_on_unlock = true } in
  let opts = Asym_structs.Ds_intf.shared_options in
  let pclock = Clock.create ~name:"producer" () in
  let producer = Client.connect ~name:"producer" shared_cfg backend ~clock:pclock in
  let cclock = Clock.create ~name:"consumer" () in
  let consumer = Client.connect ~name:"consumer" shared_cfg backend ~clock:cclock in
  let pq = Q.attach ~opts producer ~name:"jobs" in
  let cq = Q.attach ~opts consumer ~name:"jobs" in

  let produced = ref 0 in
  let consumed = ref [] in
  let crash_at = messages / 2 in
  let crashed = ref false in

  let producer_step () =
    if !produced >= messages then false
    else begin
      (if !produced = crash_at && not !crashed then begin
         (* Die with a partially flushed batch, then recover. *)
         Fmt.pr "producer crashes after %d sends (virtual t=%a)...@." !produced Simtime.pp
           (Clock.now pclock);
         crashed := true;
         Client.crash producer;
         let ops = Client.recover producer in
         let pq = Q.attach ~opts producer ~name:"jobs" in
         let reg = Asym_structs.Registry.create () in
         Asym_structs.Registry.register reg ~ds:(Q.handle pq).Types.id (Q.replay pq);
         Asym_structs.Registry.replay_all reg ops;
         Client.flush producer;
         Fmt.pr "producer recovered; replayed %d in-flight sends@." (List.length ops)
       end);
      Q.enqueue pq (Bytes.of_string (Printf.sprintf "job-%05d" !produced));
      incr produced;
      true
    end
  in
  let consumer_step () =
    match Q.dequeue cq with
    | Some msg ->
        consumed := Bytes.to_string msg :: !consumed;
        true
    | None ->
        (* Queue momentarily empty: keep polling while the producer runs. *)
        Clock.advance cclock (Simtime.us 10);
        !produced < messages || Q.size cq > 0
  in
  Sched.run
    [
      Sched.client ~clock:pclock ~run:(fun () -> while producer_step () do () done);
      Sched.client ~clock:cclock ~run:(fun () -> while consumer_step () do () done);
    ];
  (* Drain the tail. *)
  let rec drain () =
    match Q.dequeue cq with
    | Some msg ->
        consumed := Bytes.to_string msg :: !consumed;
        drain ()
    | None -> ()
  in
  drain ();

  let got = List.length !consumed in
  let distinct = List.sort_uniq compare !consumed in
  Fmt.pr "@.produced %d messages; consumed %d (%d distinct)@." !produced got
    (List.length distinct);
  Fmt.pr "producer virtual time %a, consumer %a@." Simtime.pp (Clock.now pclock) Simtime.pp
    (Clock.now cclock);
  if got = messages && List.length distinct = messages then Fmt.pr "@.message_queue OK@."
  else begin
    Fmt.pr "@.message_queue FAILED@.";
    exit 1
  end
