open Asym_sim
open Asym_core
open Asym_cluster

type outcome = {
  structure : string;
  clients : int;
  steps : int;
  seed : int64;
  ops_applied : int;
  validations : int;
  client_crashes : int;
  backend_restarts : int;
  mirror_crashes : int;
  promotions : int;
  fault_drop : float;
  grey_periods : int;
  verb_timeouts : int;
  fault_retries : int;
  reconnects : int;
  failures : string list;
}

let capacity = 16 * 1024 * 1024
let lease = Simtime.ms 50

type world = {
  subject : Subject.t;
  seed : int64;
  steps : int;
  rng : Asym_util.Rng.t;
  ka : Keepalive.t;
  mutable bk : Backend.t;
  mutable generation : int;  (* bumped on every promotion, names the successor *)
  fes : Client.t array;
  insts : Subject.instance array;
  models : Model.t array;
  opnum : int array;  (* per-client op counter, tags generated values *)
  drop : float;
  mutable grey_periods : int;
  mutable failures : string list;
}

let now w = Array.fold_left (fun t fe -> Simtime.max t (Clock.now (Client.clock fe))) Simtime.zero w.fes
let inst_name c = Printf.sprintf "chk%d" c

let command ~structure ~steps ~seed ~clients ~drop =
  Printf.sprintf "asymnvm check --structure %s --fuzz %d --seed %Ld --fuzz-clients %d%s" structure
    steps seed clients
    (if drop > 0. then Printf.sprintf " --fault-drop %g" drop else "")

let reproducer o =
  command ~structure:o.structure ~steps:o.steps ~seed:o.seed ~clients:o.clients ~drop:o.fault_drop

let fail w ~step ~event detail =
  let cmd =
    command ~structure:w.subject.Subject.name ~steps:w.steps ~seed:w.seed
      ~clients:(Array.length w.fes) ~drop:w.drop
  in
  w.failures <- Printf.sprintf "step %d [%s] %s (reproduce: %s)" step event detail cmd :: w.failures

(* Install the transient-fault model on a freshly (re)connected client.
   Seeds derive from the world seed plus the client index, so the loss
   schedule is part of the reproducer and survives reconnects. *)
let install_fault w c =
  if w.drop > 0. then
    Asym_rdma.Verbs.set_fault
      (Client.connection w.fes.(c))
      (Some
         (Asym_rdma.Verbs.Fault.make ~drop_p:w.drop ~delay_p:(w.drop /. 2.) ~delay_ns:3_000
            ~seed:(Int64.add (Int64.logxor w.seed 0xFA17L) (Int64.of_int c))
            ()))

let make_world (subject : Subject.t) ~clients ~steps ~seed ~drop =
  let lat = Latency.default in
  let bk =
    Backend.create ~name:"fuzz-bk" ~max_sessions:(clients + 2) ~memlog_cap:(512 * 1024)
      ~oplog_cap:(256 * 1024) ~slab_size:4096 ~capacity lat
  in
  Backend.attach_mirror bk (Mirror.create ~name:"fuzz-m-nvm" ~kind:Mirror.Nvm_backed ~capacity lat);
  Backend.attach_mirror bk (Mirror.create ~name:"fuzz-m-ssd" ~kind:Mirror.Ssd_backed ~capacity lat);
  let ka = Keepalive.create ~lease (Asym_util.Rng.create ~seed:(Int64.logxor seed 0x5eedL)) in
  let fes =
    Array.init clients (fun c ->
        let name = Printf.sprintf "fuzz-fe%d" c in
        Client.connect ~name (Client.rcb ~batch_size:4 ()) bk ~clock:(Clock.create ~name ()))
  in
  let insts = Array.mapi (fun c fe -> subject.Subject.attach ~name:(inst_name c) fe) fes in
  Keepalive.register ka "backend" ~now:Simtime.zero;
  Array.iteri (fun c _ -> Keepalive.register ka (Printf.sprintf "fe%d" c) ~now:Simtime.zero) fes;
  let w =
    {
      subject;
      seed;
      steps;
      rng = Asym_util.Rng.create ~seed;
      ka;
      bk;
      generation = 0;
      fes;
      insts;
      models = Array.make clients subject.Subject.model0;
      opnum = Array.make clients 0;
      drop;
      grey_periods = 0;
      failures = [];
    }
  in
  Array.iteri (fun c _ -> install_fault w c) fes;
  w

(* Recover client [c] on [backend], or on whatever back-end it currently
   points at: re-sync the session, re-attach the instance, replay
   uncovered ops. *)
let recover_client ?backend w c =
  let fe = w.fes.(c) in
  let ops = Client.recover ?backend fe in
  (* A promotion opens a fresh connection: re-arm its loss schedule so
     faults survive the failover (the recovery reads ran before it). *)
  if backend <> None then install_fault w c;
  w.insts.(c) <- Subject.resume (w.subject.Subject.attach ~name:(inst_name c)) fe ops

let validate w ~step ~event c =
  let fe = w.fes.(c) in
  Client.flush fe;
  Client.invalidate_cache fe;
  let dump = w.insts.(c).Asym_structs.Catalog.dump () and want = Model.dump w.models.(c) in
  if dump <> want then
    fail w ~step ~event
      (Printf.sprintf "client %d: dump has %d entries, model has %d after %d ops" c
         (List.length dump) (List.length want) w.opnum.(c))

let step_op w ~step:_ =
  let c = Asym_util.Rng.int w.rng (Array.length w.fes) in
  let op = Model.random_op w.rng ~kind:w.subject.Subject.kind ~i:w.opnum.(c) in
  Subject.apply w.insts.(c) op;
  w.models.(c) <- Model.apply w.models.(c) op;
  w.opnum.(c) <- w.opnum.(c) + 1

(* Verb-granular burst: one operation on every client at once, under the
   co-simulation scheduler, so their RDMA verbs genuinely interleave on
   the shared back-end NIC and memory-log rings. Each client drives its
   own structure, so the per-client reference models stay sequential.
   The operations are drawn from the world RNG before the scheduler
   starts, keeping the step a pure function of the seed. *)
let step_cosim_burst w ~step:_ =
  let ops =
    Array.mapi
      (fun c _ -> Model.random_op w.rng ~kind:w.subject.Subject.kind ~i:w.opnum.(c))
      w.fes
  in
  let burst =
    Array.to_list
      (Array.mapi
         (fun c fe ->
           Sched.client ~clock:(Client.clock fe) ~run:(fun () ->
               Subject.apply w.insts.(c) ops.(c)))
         w.fes)
  in
  Sched.run burst;
  Array.iteri
    (fun c op ->
      w.models.(c) <- Model.apply w.models.(c) op;
      w.opnum.(c) <- w.opnum.(c) + 1)
    ops

let step_client_crash w ~step =
  let c = Asym_util.Rng.int w.rng (Array.length w.fes) in
  Client.crash w.fes.(c);
  (match recover_client w c with
  | () -> ()
  | exception e ->
      fail w ~step ~event:"client-crash" (Printf.sprintf "recovery raised %s" (Printexc.to_string e)));
  validate w ~step ~event:"client-crash" c

let recover_all ?backend w ~step ~event =
  for c = 0 to Array.length w.fes - 1 do
    match recover_client ?backend w c with
    | () -> validate w ~step ~event c
    | exception e ->
        fail w ~step ~event (Printf.sprintf "client %d recovery raised %s" c (Printexc.to_string e))
  done

let step_backend_restart w ~step =
  Backend.crash w.bk;
  ignore (Backend.restart w.bk);
  recover_all w ~step ~event:"backend-restart"

let step_mirror_crash w ~step:_ =
  match List.filter (fun m -> not (Mirror.is_crashed m)) (Backend.mirrors w.bk) with
  | [] -> ()
  | live -> Mirror.crash (List.nth live (Asym_util.Rng.int w.rng (List.length live)))

(* Permanent back-end death: stop renewing its lease, advance every clock
   past it, let the keepAlive majority declare the crash, then elect and
   promote a surviving mirror (§7.2 Case 4). With no live mirror left the
   cluster can only restart the old node in place. *)
let step_promotion w ~step =
  Backend.crash w.bk;
  Array.iter (fun fe -> Clock.advance (Client.clock fe) (Simtime.ms 200)) w.fes;
  let t = now w in
  if Keepalive.alive w.ka "backend" ~now:t then
    fail w ~step ~event:"promotion" "keepAlive majority still holds a lapsed back-end lease";
  match Failover.elect (Backend.mirrors w.bk) with
  | None ->
      ignore (Backend.restart w.bk);
      Keepalive.renew w.ka "backend" ~now:t;
      recover_all w ~step ~event:"promotion-restart";
      `Restarted
  | Some m ->
      w.generation <- w.generation + 1;
      let bk' =
        Failover.promote ~name:(Printf.sprintf "fuzz-bk%d" w.generation) m (Backend.latency w.bk)
      in
      (* Surviving mirrors follow the successor. An adopted NVM mirror IS
         the successor now; an SSD promotion source keeps mirroring (its
         image equals the copied one). *)
      List.iter
        (fun m' ->
          if
            (not (Mirror.is_crashed m'))
            && not (m' == m && Mirror.kind m = Mirror.Nvm_backed)
          then Backend.attach_mirror bk' m')
        (Backend.mirrors w.bk);
      w.bk <- bk';
      Keepalive.renew w.ka "backend" ~now:t;
      recover_all ~backend:bk' w ~step ~event:"promotion";
      `Promoted

(* Arm a grey period — a window of heavy loss — on one client's
   connection, starting now. The window is shorter than the keepAlive
   lease, so a correct stack rides it out with retries; a spurious
   failover or a dump/model divergence under grey loss is a bug. *)
let step_grey w ~step:_ =
  let c = Asym_util.Rng.int w.rng (Array.length w.fes) in
  let dur = Simtime.us (50 + Asym_util.Rng.int w.rng 450) in
  let from_ = Clock.now (Client.clock w.fes.(c)) in
  Asym_rdma.Verbs.arm_grey (Client.connection w.fes.(c)) ~from_ ~until:(from_ + dur);
  w.grey_periods <- w.grey_periods + 1

let run ?(clients = 2) ?(drop = 0.) (subject : Subject.t) ~steps ~seed:sd =
  if clients < 1 then invalid_arg "Fuzz.run: clients must be >= 1";
  if drop < 0. || drop >= 1. then invalid_arg "Fuzz.run: drop must be in [0, 1)";
  let w = make_world subject ~clients ~steps ~seed:sd ~drop in
  let ops_applied = ref 0
  and validations = ref 0
  and client_crashes = ref 0
  and backend_restarts = ref 0
  and mirror_crashes = ref 0
  and promotions = ref 0 in
  for step = 1 to steps do
    (* Fault-schedule steps draw from the RNG only when faults are on,
       so a faults-off run replays exactly the historical schedule. *)
    if drop > 0. && Asym_util.Rng.int w.rng 100 < 10 then step_grey w ~step;
    (match Asym_util.Rng.int w.rng 100 with
    | r when r < 62 ->
        step_op w ~step;
        incr ops_applied
    | r when r < 70 ->
        step_cosim_burst w ~step;
        ops_applied := !ops_applied + Array.length w.fes
    | r when r < 80 ->
        validate w ~step ~event:"validate" (Asym_util.Rng.int w.rng clients);
        incr validations
    | r when r < 88 ->
        step_client_crash w ~step;
        incr client_crashes
    | r when r < 94 ->
        step_backend_restart w ~step;
        incr backend_restarts
    | r when r < 97 ->
        step_mirror_crash w ~step;
        incr mirror_crashes
    | _ -> (
        match step_promotion w ~step with
        | `Promoted -> incr promotions
        | `Restarted -> incr backend_restarts));
    (* Heartbeats: everyone still standing renews before the next step. *)
    let t = now w in
    Keepalive.renew w.ka "backend" ~now:t;
    Array.iteri (fun c _ -> Keepalive.renew w.ka (Printf.sprintf "fe%d" c) ~now:t) w.fes
  done;
  for c = 0 to clients - 1 do
    validate w ~step:steps ~event:"final" c;
    incr validations
  done;
  let sum f = Array.fold_left (fun n fe -> n + f fe) 0 w.fes in
  {
    structure = subject.Subject.name;
    clients;
    steps;
    seed = sd;
    ops_applied = !ops_applied;
    validations = !validations;
    client_crashes = !client_crashes;
    backend_restarts = !backend_restarts;
    mirror_crashes = !mirror_crashes;
    promotions = !promotions;
    fault_drop = drop;
    grey_periods = w.grey_periods;
    verb_timeouts = sum (fun fe -> Asym_rdma.Verbs.verb_timeouts (Client.connection fe));
    fault_retries = sum Client.fault_retries;
    reconnects = sum Client.reconnects;
    failures = List.rev w.failures;
  }

let pp_outcome fmt o =
  Fmt.pf fmt
    "%-10s fuzz seed=%Ld steps=%d clients=%d: %d ops, %d validations, %d client crashes, %d \
     backend restarts, %d mirror crashes, %d promotions, %d failures"
    o.structure o.seed o.steps o.clients o.ops_applied o.validations o.client_crashes
    o.backend_restarts o.mirror_crashes o.promotions (List.length o.failures);
  if o.fault_drop > 0. then
    Fmt.pf fmt "@.  faults: drop=%.3f, %d grey periods, %d verb timeouts, %d retries, %d reconnects"
      o.fault_drop o.grey_periods o.verb_timeouts o.fault_retries o.reconnects;
  List.iter (fun f -> Fmt.pf fmt "@.  FAIL %s" f) o.failures
