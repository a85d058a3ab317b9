open Asym_sim

exception Failure_detected of string
exception Verb_timeout of string

(* -- transient-fault model ---------------------------------------------------

   Between "the fabric works" and "the node is dead" sits the grey zone
   this module injects: individual verbs silently lost or delayed, with
   elevated loss inside armed grey periods. All randomness comes from a
   per-connection seeded stream, so a whole faulty run replays
   byte-for-byte from its seed. *)

module Fault = struct
  type t = {
    seed : int64;
    drop_p : float;  (* baseline per-verb loss probability *)
    grey_drop_p : float;  (* loss probability inside an armed grey window *)
    delay_p : float;  (* extra-delay probability for delivered verbs *)
    delay_ns : int;  (* maximum injected fabric delay *)
    timeout_ns : int;  (* 0 = connection's Latency.verb_timeout_ns *)
  }

  let make ?(drop_p = 0.) ?(grey_drop_p = 0.9) ?(delay_p = 0.) ?(delay_ns = 2_000)
      ?(timeout_ns = 0) ~seed () =
    if drop_p < 0. || drop_p > 1. || grey_drop_p < 0. || grey_drop_p > 1. then
      invalid_arg "Verbs.Fault.make: probabilities must be in [0, 1]";
    { seed; drop_p; grey_drop_p; delay_p; delay_ns; timeout_ns }
end

type conn = {
  client : Clock.t;
  remote_nic : Timeline.t;
  remote_mem : Asym_nvm.Device.t;
  lat : Latency.t;
  mutable ops : int;
  mutable wire_bytes : int;
  mutable fault : (Fault.t * Asym_util.Rng.t) option;
  mutable grey : (Simtime.t * Simtime.t) list;  (* armed grey windows *)
  mutable n_timeouts : int;
  mutable n_delays : int;
}

let connect ~client ~remote_nic ~remote_mem lat =
  {
    client;
    remote_nic;
    remote_mem;
    lat;
    ops = 0;
    wire_bytes = 0;
    fault = None;
    grey = [];
    n_timeouts = 0;
    n_delays = 0;
  }

let client_clock t = t.client
let remote_mem t = t.remote_mem

let set_fault t f =
  t.fault <-
    (match f with
    | None -> None
    | Some f -> Some (f, Asym_util.Rng.create ~seed:f.Fault.seed));
  if f = None then t.grey <- []

let has_fault t = t.fault <> None
let verb_timeouts t = t.n_timeouts
let injected_delays t = t.n_delays

let arm_grey t ~from_ ~until =
  if until <= from_ then invalid_arg "Verbs.arm_grey: empty window";
  t.grey <- (from_, until) :: t.grey

let in_grey t =
  let now = Clock.now t.client in
  List.exists (fun (a, b) -> now >= a && now < b) t.grey

let timeout_ns t =
  match t.fault with
  | Some (f, _) when f.Fault.timeout_ns > 0 -> f.Fault.timeout_ns
  | _ -> t.lat.Latency.verb_timeout_ns

(* The fate of one verb attempt. [`Request]: lost before reaching the
   remote side, no remote effect at all. [`Ack]: the verb executed
   remotely but its completion never came back. Atomics only ever lose
   the request — a CAS that won but looks lost would make blind retry
   unsafe, and real RNICs treat unacked atomics as not-executed
   (retransmission happens below the verb interface). *)
type fate = Deliver of int | Lost of [ `Request | `Ack ]

let fate t ~atomic =
  match t.fault with
  | None -> Deliver 0
  | Some (f, rng) ->
      let now = Clock.now t.client in
      t.grey <- List.filter (fun (_, b) -> b > now) t.grey;
      let drop_p =
        if List.exists (fun (a, b) -> now >= a && now < b) t.grey then
          Float.max f.Fault.drop_p f.Fault.grey_drop_p
        else f.Fault.drop_p
      in
      if Asym_util.Rng.float rng < drop_p then
        Lost
          (if atomic then `Request
           else if Asym_util.Rng.bool rng then `Request
           else `Ack)
      else if Asym_util.Rng.float rng < f.Fault.delay_p then
        Deliver (1 + Asym_util.Rng.int rng (max 1 f.Fault.delay_ns))
      else Deliver 0

(* A lost verb from the client's point of view: wait out the completion
   timeout (charged as fault-handling time, so attribution conservation
   holds), then surface the loss. Not counted in ops/wire — the verb
   never completed. *)
let lose t ~op =
  t.n_timeouts <- t.n_timeouts + 1;
  Clock.advance ~cause:Asym_obs.Attr.Fault_retry t.client (timeout_ns t);
  if Asym_obs.enabled () then
    Asym_obs.Registry.inc ~labels:[ ("op", op) ] "rdma.verb_timeouts";
  raise (Verb_timeout (op ^ "/" ^ Asym_nvm.Device.name t.remote_mem))

let inject_delay t d =
  if d > 0 then begin
    t.n_delays <- t.n_delays + 1;
    Clock.advance ~cause:Asym_obs.Attr.Fault_retry t.client d
  end

(* Per-verb accounting: a counter, wire bytes, and a span occupying the
   remote NIC's track for the verb's service slot. One branch when
   observability is off. *)
let obs_verb t ~op ~wire ~start ~dur =
  if Asym_obs.enabled () then begin
    let labels = [ ("op", op) ] in
    Asym_obs.Registry.inc ~labels "rdma.verbs";
    Asym_obs.Registry.add ~labels "rdma.wire_bytes" wire;
    Asym_obs.Registry.add "rdma.nic_busy_ns" dur;
    Asym_obs.Span.complete ~cat:"rdma" ~track:(Timeline.name t.remote_nic) ~ts:start ~dur
      ("rdma." ^ op)
  end

(* Occupy the remote NIC for the service time of the verb, then charge the
   client for the end-to-end completion. NVM media time adds to the
   client-visible latency but does not occupy the NIC (DMA engines
   pipeline it). Returns the absolute completion time at the remote
   side. *)
let round_trip t ~op ~wire ~service ~media =
  let at = Clock.now t.client in
  let dur = t.lat.Latency.rdma_post_ns + service in
  let start = Timeline.acquire t.remote_nic ~at ~dur in
  let queueing = start - at in
  (* Same total as one combined advance, but each component lands on its
     own attribution cause; nothing happens between them, so one yield. *)
  Clock.charge ~cause:Asym_obs.Attr.Nic_queue t.client queueing;
  Clock.charge ~cause:Asym_obs.Attr.Rdma_rtt t.client t.lat.Latency.rdma_rtt_ns;
  Clock.charge ~cause:Asym_obs.Attr.Rdma_bytes t.client service;
  Clock.charge ~cause:Asym_obs.Attr.Nvm_media t.client media;
  Clock.yield t.client;
  t.ops <- t.ops + 1;
  obs_verb t ~op ~wire ~start ~dur;
  start + dur + media

(* Validate before charging: an optimistic reader chasing a pointer that a
   concurrent writer reclaimed can ask for absurd addresses or lengths;
   the NIC rejects the work request instead of overflowing cost math. *)
let check_bounds t ~addr ~len =
  if len < 0 || addr < 0 || addr + len > Asym_nvm.Device.capacity t.remote_mem then
    invalid_arg
      (Printf.sprintf "Rdma.Verbs: invalid memory region (addr=%d len=%d)" addr len)

let read_into t ~addr buf ~pos ~len =
  check_bounds t ~addr ~len;
  if pos < 0 || pos > Bytes.length buf - len then invalid_arg "Rdma.Verbs.read_into: buffer";
  (* A lost read has no remote side effect whichever direction vanished. *)
  (match fate t ~atomic:false with
  | Lost _ -> lose t ~op:"read"
  | Deliver d -> inject_delay t d);
  let service = Latency.rdma_payload_ns t.lat len in
  let media = Asym_nvm.Device.read_cost t.remote_mem ~len in
  let _done_at = round_trip t ~op:"read" ~wire:len ~service ~media in
  t.wire_bytes <- t.wire_bytes + len;
  Asym_nvm.Device.read_into t.remote_mem ~addr buf ~pos ~len

(* Bounds first, so a wild length is rejected before it is allocated. *)
let read t ~addr ~len =
  check_bounds t ~addr ~len;
  let b = Bytes.create len in
  read_into t ~addr b ~pos:0 ~len;
  b

let write ?wire_len ?len:data_len t ~addr b =
  let data_len = match data_len with Some n -> n | None -> Bytes.length b in
  check_bounds t ~addr ~len:data_len;
  let verdict = fate t ~atomic:false in
  (match verdict with Lost `Request -> lose t ~op:"write" | _ -> ());
  Asym_nvm.Crashpoint.in_verb "rdma.write" @@ fun () ->
  let len = match wire_len with Some w -> w | None -> data_len in
  let service = Latency.rdma_payload_ns t.lat len in
  let media = Asym_nvm.Device.write_cost t.remote_mem ~len in
  match verdict with
  | Lost `Ack ->
      (* The write reached the media — only the completion was lost. The
         remote NIC does the work; the client just times out. Retrying is
         safe because every write in this system lands at an absolute
         address (log appends are positional, replay is idempotent). *)
      let at = Clock.now t.client in
      ignore (Timeline.acquire t.remote_nic ~at ~dur:(t.lat.Latency.rdma_post_ns + service));
      Asym_nvm.Device.write t.remote_mem ~addr ~len:data_len b;
      lose t ~op:"write"
  | _ ->
      inject_delay t (match verdict with Deliver d -> d | Lost _ -> 0);
      let _done_at = round_trip t ~op:"write" ~wire:len ~service ~media in
      t.wire_bytes <- t.wire_bytes + len;
      Asym_nvm.Device.write t.remote_mem ~addr ~len:data_len b

(* Unsignaled posts are exempt from loss injection: with no completion to
   wait for there is nothing to time out on. Their durability is only
   promised by the next signaled verb — which IS injected, so a grey
   period still surfaces through the synchronizing round trip. *)
let write_unsignaled t ~addr b =
  Asym_nvm.Crashpoint.in_verb "rdma.write_unsignaled" @@ fun () ->
  let len = Bytes.length b in
  let service = Latency.rdma_payload_ns t.lat len in
  let media = Asym_nvm.Device.write_cost t.remote_mem ~len in
  ignore media;
  let at = Clock.now t.client in
  let dur = t.lat.Latency.rdma_post_ns + service in
  let start = Timeline.acquire t.remote_nic ~at ~dur in
  (* The client only pays the local posting cost. *)
  Clock.advance t.client t.lat.Latency.rdma_post_ns;
  t.ops <- t.ops + 1;
  t.wire_bytes <- t.wire_bytes + len;
  obs_verb t ~op:"write_unsignaled" ~wire:len ~start ~dur;
  Asym_nvm.Device.write t.remote_mem ~addr b

let atomic t ~op ~media =
  let at = Clock.now t.client in
  let dur = t.lat.Latency.rdma_post_ns in
  let start = Timeline.acquire t.remote_nic ~at ~dur in
  let queueing = start - at in
  Clock.charge ~cause:Asym_obs.Attr.Nic_queue t.client queueing;
  Clock.charge ~cause:Asym_obs.Attr.Rdma_rtt t.client t.lat.Latency.rdma_atomic_ns;
  Clock.charge ~cause:Asym_obs.Attr.Nvm_media t.client media;
  Clock.yield t.client;
  t.ops <- t.ops + 1;
  t.wire_bytes <- t.wire_bytes + 16;
  obs_verb t ~op ~wire:16 ~start ~dur

let compare_and_swap t ~addr ~expected ~desired =
  (match fate t ~atomic:true with
  | Lost _ -> lose t ~op:"cas"
  | Deliver d -> inject_delay t d);
  Asym_nvm.Crashpoint.in_verb "rdma.cas" @@ fun () ->
  let media = Asym_nvm.Device.write_cost t.remote_mem ~len:8 in
  atomic t ~op:"cas" ~media;
  Asym_nvm.Device.compare_and_swap t.remote_mem ~addr ~expected ~desired

(* One writer-lock acquisition probe (§6.1): an RDMA CAS trying to flip
   the lock word 0 -> 1. Returns whether the probe won. The full probe
   cost is charged to Lock_wait — under the co-simulation each probe is
   a suspension point, so a contending client's spin is a sequence of
   probes genuinely interleaved with the holder's verbs, and the NIC
   slot it books is queueing the other clients observe. Kept out of the
   ops/wire accounting: Table 1 counts lock traffic separately from the
   per-operation verbs, as the paper does. *)
let lock_probe t ~addr =
  (match fate t ~atomic:true with
  | Lost _ -> lose t ~op:"lock_cas"
  | Deliver d -> inject_delay t d);
  Asym_nvm.Crashpoint.in_verb "rdma.lock_cas" @@ fun () ->
  let at = Clock.now t.client in
  let dur = t.lat.Latency.rdma_post_ns in
  let start = Timeline.acquire t.remote_nic ~at ~dur in
  Clock.advance ~cause:Asym_obs.Attr.Lock_wait t.client t.lat.Latency.rdma_atomic_ns;
  obs_verb t ~op:"lock_cas" ~wire:16 ~start ~dur;
  Asym_nvm.Device.compare_and_swap t.remote_mem ~addr ~expected:0L ~desired:1L = 0L

let fetch_add t ~addr delta =
  (match fate t ~atomic:true with
  | Lost _ -> lose t ~op:"fetch_add"
  | Deliver d -> inject_delay t d);
  Asym_nvm.Crashpoint.in_verb "rdma.fetch_add" @@ fun () ->
  let media = Asym_nvm.Device.write_cost t.remote_mem ~len:8 in
  atomic t ~op:"fetch_add" ~media;
  Asym_nvm.Device.fetch_add t.remote_mem ~addr delta

let ops_posted t = t.ops
let bytes_on_wire t = t.wire_bytes
