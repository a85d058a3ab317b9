open Asym_sim

type kind = Nvm_backed | Ssd_backed

type t = {
  kind : kind;
  name : string;
  dev : Asym_nvm.Device.t;
  nic : Timeline.t;
  lat : Latency.t;
  mutable bytes : int;
  mutable writes : int;
  mutable crashed : bool;
}

let create ?(name = "mirror") ~kind ~capacity lat =
  {
    kind;
    name;
    dev = Asym_nvm.Device.create ~name:(name ^ ".dev") ~capacity lat;
    nic = Timeline.create ~name:(name ^ ".nic") ();
    lat;
    bytes = 0;
    writes = 0;
    crashed = false;
  }

let kind t = t.kind
let name t = t.name
let device t = t.dev

let media_cost t len =
  match t.kind with
  | Nvm_backed -> Latency.nvm_write_cost t.lat len
  | Ssd_backed -> t.lat.Latency.ssd_write_ns

let replicate t ~from_nic ~at ~addr ?len b =
  if t.crashed then ()
  else begin
    let len = match len with Some n -> n | None -> Bytes.length b in
    let payload = Latency.rdma_payload_ns t.lat len in
    (* The back-end NIC sends, the mirror NIC receives and its media absorbs. *)
    let sent = Timeline.acquire from_nic ~at ~dur:(t.lat.Latency.rdma_post_ns + payload) in
    let _recv =
      Timeline.acquire t.nic ~at:(sent + (t.lat.Latency.rdma_rtt_ns / 2))
        ~dur:(t.lat.Latency.rdma_post_ns + payload + media_cost t len)
    in
    Asym_nvm.Device.write t.dev ~addr ~len b;
    t.bytes <- t.bytes + len;
    t.writes <- t.writes + 1
  end

let bytes_replicated t = t.bytes
let writes_replicated t = t.writes
let crash t = t.crashed <- true
let is_crashed t = t.crashed
let restart t = t.crashed <- false
