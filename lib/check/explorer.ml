open Asym_sim
open Asym_core
module Crash = Asym_nvm.Crashpoint
module Device = Asym_nvm.Device

type failure = {
  point : int;
  site : string;
  torn : int option;
  completed : int;
  detail : string;
}

type outcome = {
  structure : string;
  ops : int;
  seed : int64;
  drop : float;
  boundaries : int;
  sites : (string * int) list;
  points_run : int;
  failures : failure list;
}

(* Every run gets a fresh world so crash points are independent and the
   boundary numbering matches the census exactly. The fault model (when
   [drop] > 0) is seeded from the schedule seed, and the client's retry
   jitter stream from its (fixed) name — so census and armed runs see the
   same losses at the same verbs and number the same boundaries. *)
let fresh_world ~seed ~drop () =
  let bk =
    Backend.create ~name:"chk-bk" ~max_sessions:4 ~memlog_cap:(512 * 1024)
      ~oplog_cap:(256 * 1024) ~slab_size:4096 ~capacity:(16 * 1024 * 1024) Latency.default
  in
  let fe =
    Client.connect ~name:"chk-fe" (Client.rcb ~batch_size:8 ()) bk
      ~clock:(Clock.create ~name:"chk-fe" ())
  in
  if drop > 0. then
    Asym_rdma.Verbs.set_fault (Client.connection fe)
      (Some (Asym_rdma.Verbs.Fault.make ~drop_p:drop ~seed:(Int64.logxor seed 0xFA17L) ()));
  (bk, fe)

let census (subject : Subject.t) ~seed ~drop opl =
  Crash.reset ();
  Crash.set_census ();
  let _bk, fe = fresh_world ~seed ~drop () in
  let inst = subject.Subject.attach fe in
  List.iter (Subject.apply inst) opl;
  Client.flush fe;
  let n = Crash.boundaries () and sites = Crash.site_counts () in
  Crash.reset ();
  (n, sites)

let prefix_models (subject : Subject.t) opl =
  let n = List.length opl in
  let prefixes = Array.make (n + 1) subject.Subject.model0 in
  List.iteri (fun i op -> prefixes.(i + 1) <- Model.apply prefixes.(i) op) opl;
  prefixes

let pp_dump fmt d =
  Fmt.pf fmt "%d entries [%a%s]" (List.length d)
    Fmt.(list ~sep:(any "; ") (fun fmt (k, v) -> pf fmt "%Ld=%S" k (Bytes.to_string v)))
    (List.filteri (fun i _ -> i < 4) d)
    (if List.length d > 4 then "; ..." else "")

(* An atomic verb cannot tear: the NIC applies RDMA CAS/fetch-add as one
   8-byte unit. Everything else (signaled and unsignaled writes) can. *)
let tearable site = String.length site >= 10 && String.sub site 0 10 = "rdma.write"

(* Replay the schedule with a crash armed at [point]; recover; validate.
   Returns [Ok ()], a failure, or [`Skip] when the tear variant was
   requested for a non-tearable (atomic) boundary. *)
let run_armed (subject : Subject.t) ~opl ~prefixes ~seed ~drop ~point ~tear =
  Crash.reset ();
  Crash.arm point;
  let bk, fe = fresh_world ~seed ~drop () in
  let completed = ref 0 in
  let crashed =
    try
      let inst = subject.Subject.attach fe in
      List.iter
        (fun op ->
          Subject.apply inst op;
          incr completed)
        opl;
      Client.flush fe;
      false
    with Crash.Crash_injected _ -> true
  in
  let fired = Crash.fired () in
  Crash.reset ();
  if not crashed then
    (* The armed point lies past this schedule's boundary count — only
       possible when the caller overshoots; nothing to validate. *)
    `Skip
  else begin
    let site = match fired with Some (_, s) -> s | None -> "?" in
    let torn =
      if not tear then None
      else if not (tearable site) then None
      else
        match Device.last_write_len (Backend.device bk) with
        | None -> None
        | Some len ->
            (* Clip the CRC plus a few payload bytes: parses structurally,
               fails the checksum — the §4.2 torn-write shape. *)
            Some (max 0 (len - 7))
    in
    if tear && torn = None then `Skip
    else begin
      (match torn with Some keep -> Device.tear_last_write (Backend.device bk) ~keep | None -> ());
      let fail detail = `Fail { point; site; torn; completed = !completed; detail } in
      match
        Client.crash fe;
        let ops = Client.recover fe in
        Subject.resume subject.Subject.attach fe ops
      with
      | exception e -> fail (Printf.sprintf "recovery raised %s" (Printexc.to_string e))
      | inst -> (
          let dump = inst.Asym_structs.Catalog.dump () in
          let k = !completed in
          let matched =
            if dump = Model.dump prefixes.(k) then Some prefixes.(k)
            else if k + 1 < Array.length prefixes && dump = Model.dump prefixes.(k + 1) then
              Some prefixes.(k + 1)
            else None
          in
          match matched with
          | None ->
              fail
                (Fmt.str "recovered state matches neither model_%d nor model_%d: got %a, want %a"
                   k
                   (min (k + 1) (Array.length prefixes - 1))
                   pp_dump dump pp_dump
                   (Model.dump prefixes.(k)))
          | Some model -> (
              (* Liveness probe: the recovered structure must still accept
                 and persist a fresh operation. *)
              let probe =
                match subject.Subject.kind with
                | `Map -> Model.Put (999_983L, Bytes.of_string "probe-after-recovery")
                | `Seq -> Model.Push (Bytes.of_string "probe-after-recovery")
              in
              match
                Subject.apply inst probe;
                Client.flush fe;
                inst.Asym_structs.Catalog.dump ()
              with
              | exception e ->
                  fail (Printf.sprintf "post-recovery probe raised %s" (Printexc.to_string e))
              | dump' ->
                  if dump' = Model.dump (Model.apply model probe) then `Ok
                  else fail "post-recovery probe not observed"))
    end
  end

let sweep ?(stride = 1) ?(tear = true) ?(drop = 0.) (subject : Subject.t) ~ops ~seed =
  if stride < 1 then invalid_arg "Explorer.sweep: stride must be >= 1";
  if drop < 0. || drop >= 1. then invalid_arg "Explorer.sweep: drop must be in [0, 1)";
  let opl = Model.generate ~kind:subject.Subject.kind ~ops ~seed in
  let boundaries, sites = census subject ~seed ~drop opl in
  let prefixes = prefix_models subject opl in
  let points_run = ref 0 and failures = ref [] in
  let point = ref 1 in
  while !point <= boundaries do
    List.iter
      (fun tear ->
        match run_armed subject ~opl ~prefixes ~seed ~drop ~point:!point ~tear with
        | `Skip -> ()
        | `Ok -> incr points_run
        | `Fail f ->
            incr points_run;
            failures := f :: !failures)
      (if tear then [ false; true ] else [ false ]);
    point := !point + stride
  done;
  {
    structure = subject.Subject.name;
    ops;
    seed;
    drop;
    boundaries;
    sites;
    points_run = !points_run;
    failures = List.rev !failures;
  }

let run_point ?(drop = 0.) (subject : Subject.t) ~ops ~seed ~point ~tear =
  let opl = Model.generate ~kind:subject.Subject.kind ~ops ~seed in
  let prefixes = prefix_models subject opl in
  match run_armed subject ~opl ~prefixes ~seed ~drop ~point ~tear with
  | `Ok | `Skip -> None
  | `Fail f -> Some f

let reproducer (o : outcome) (f : failure) =
  Printf.sprintf "asymnvm check --structure %s --ops %d --seed %Ld --point %d%s%s" o.structure
    o.ops o.seed f.point
    (if f.torn <> None then " --tear-point" else "")
    (if o.drop > 0. then Printf.sprintf " --fault-drop %g" o.drop else "")

let pp_outcome fmt o =
  Fmt.pf fmt "%-10s seed=%Ld ops=%d: %d crash points, %d runs, %d failures" o.structure o.seed
    o.ops o.boundaries o.points_run (List.length o.failures);
  List.iter
    (fun f ->
      Fmt.pf fmt "@.  FAIL point %d (%s%s, %d ops completed): %s@.  REPRODUCE: %s" f.point
        f.site
        (match f.torn with Some k -> Printf.sprintf ", torn keep=%d" k | None -> "")
        f.completed f.detail (reproducer o f))
    o.failures
