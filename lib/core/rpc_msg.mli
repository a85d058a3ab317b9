(** Wire messages of the back-end management RPC (§5.1).

    Front-ends reach the passive back-end through an RFP-style RPC built on
    one-sided verbs: the request is RDMA-written into a per-session ring,
    the back-end CPU processes it, and the response is RDMA-read back. The
    encodings here exist so the simulated NIC charges realistic payload
    sizes and so the messages round-trip through real bytes. *)

type request =
  | Open_session of { client_name : string; reuse : int option }
  | Close_session
  | Malloc of { slabs : int }
  | Free of { addr : Types.addr; slabs : int }
  | Free_batch of { addrs : Types.addr list }
      (** periodic reclamation: many 1-slab frees in one RFP round (§5.2) *)
  | Name_get of { name : string }
  | Register_ds of { name : string }

type handle_info = {
  ds : Types.ds_id;
  root : Types.addr;
  lock : Types.addr;
  sn : Types.addr;
}

type response =
  | R_unit
  | R_addr of Types.addr
  | R_session of Types.session_id
  | R_name of (Types.name_kind * Types.addr) option
  | R_handle of handle_info
  | R_error of string

val encode_request : request -> bytes
val decode_request : bytes -> request
val encode_response : response -> bytes
val decode_response : bytes -> response

val pp_response : Format.formatter -> response -> unit
