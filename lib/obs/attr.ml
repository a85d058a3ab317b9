(* Latency attribution: every virtual nanosecond charged to a clock
   carries one of these cause tags (Clock.advance / Clock.wait_until
   default to Local_compute; the RDMA/NVM/core layers override at each
   charging site). The sink is a flat int array so a charge is two loads
   and a store when the gate is on, and one branch when it is off. *)

type cause =
  | Rdma_rtt
  | Rdma_bytes
  | Nic_queue
  | Nvm_media
  | Lock_wait
  | Read_retry
  | Replay_wait
  | Alloc_rpc
  | Fault_retry
  | Local_compute

let all =
  [
    Rdma_rtt;
    Rdma_bytes;
    Nic_queue;
    Nvm_media;
    Lock_wait;
    Read_retry;
    Replay_wait;
    Alloc_rpc;
    Fault_retry;
    Local_compute;
  ]

let ncauses = 10

let index = function
  | Rdma_rtt -> 0
  | Rdma_bytes -> 1
  | Nic_queue -> 2
  | Nvm_media -> 3
  | Lock_wait -> 4
  | Read_retry -> 5
  | Replay_wait -> 6
  | Alloc_rpc -> 7
  | Fault_retry -> 8
  | Local_compute -> 9

let name = function
  | Rdma_rtt -> "rdma_rtt"
  | Rdma_bytes -> "rdma_bytes"
  | Nic_queue -> "nic_queue"
  | Nvm_media -> "nvm_media"
  | Lock_wait -> "lock_wait"
  | Read_retry -> "read_retry"
  | Replay_wait -> "replay_wait"
  | Alloc_rpc -> "alloc_rpc"
  | Fault_retry -> "fault_retry"
  | Local_compute -> "local_compute"

let of_name = function
  | "rdma_rtt" -> Some Rdma_rtt
  | "rdma_bytes" -> Some Rdma_bytes
  | "nic_queue" -> Some Nic_queue
  | "nvm_media" -> Some Nvm_media
  | "lock_wait" -> Some Lock_wait
  | "read_retry" -> Some Read_retry
  | "replay_wait" -> Some Replay_wait
  | "alloc_rpc" -> Some Alloc_rpc
  | "fault_retry" -> Some Fault_retry
  | "local_compute" -> Some Local_compute
  | _ -> None

(* The global sink: every clock's charges since the last [reset]. *)
let sink = Array.make ncauses 0

let get cause = sink.(index cause)
let total () = Array.fold_left ( + ) 0 sink
let reset () = Array.fill sink 0 ncauses 0

type snapshot = int array

(* -- per-clock local sinks --------------------------------------------------

   Under the verb-granular co-simulation several clocks charge
   interleaved, so a window delta over the global sink would absorb
   other clients' causes. Each clock therefore owns a local sink;
   [local_charge] updates both, keeping the invariant that the global
   sink is the sum of all local sinks (conservation still holds
   globally), while windowed queries ([local_since]/[local_reattribute])
   see only their own clock's charges. *)

type local = int array

let local_create () = Array.make ncauses 0

let local_charge l cause d =
  if Gate.enabled () && d > 0 then begin
    let i = index cause in
    l.(i) <- l.(i) + d;
    sink.(i) <- sink.(i) + d
  end

let local_total l = Array.fold_left ( + ) 0 l
let local_snapshot l : snapshot = Array.copy l

let local_since l snap =
  List.map
    (fun c ->
      let i = index c in
      let before = if Array.length snap = ncauses then snap.(i) else 0 in
      (c, l.(i) - before))
    all

(* Re-classify everything one clock charged since [snap] as [cause]: the
   retry path uses this so a failed optimistic read section counts as
   Read_retry rather than as the RDMA reads it re-issued. Total charged
   ns is preserved, and the same deltas are mirrored into the global
   sink so it stays the sum of the locals. *)
let local_reattribute l ~since:snap cause =
  if Gate.enabled () then begin
    let moved =
      List.fold_left
        (fun moved (c, d) ->
          if c = cause || d <= 0 then moved
          else begin
            let i = index c in
            l.(i) <- l.(i) - d;
            sink.(i) <- sink.(i) - d;
            moved + d
          end)
        0 (local_since l snap)
    in
    let i = index cause in
    l.(i) <- l.(i) + moved;
    sink.(i) <- sink.(i) + moved
  end

let breakdown () =
  List.filter_map (fun c -> match get c with 0 -> None | v -> Some (c, v)) all

(* Move the accumulated sink into registry counters (attr.ns{cause=...})
   and clear it — called at the end of each harness phase so every
   snapshot carries its own attribution section. *)
let flush_to_registry () =
  List.iter
    (fun (c, v) -> Registry.add ~labels:[ ("cause", name c) ] "attr.ns" v)
    (breakdown ());
  reset ()
