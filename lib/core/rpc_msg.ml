open Asym_util

type request =
  | Open_session of { client_name : string; reuse : int option }
  | Close_session
  | Malloc of { slabs : int }
  | Free of { addr : Types.addr; slabs : int }
  | Free_batch of { addrs : Types.addr list }
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

let encode_request r =
  let e = Codec.Enc.create () in
  (match r with
  | Open_session { client_name; reuse } ->
      Codec.Enc.u8 e 1;
      Codec.Enc.string e client_name;
      (match reuse with
      | None -> Codec.Enc.u8 e 0
      | Some s ->
          Codec.Enc.u8 e 1;
          Codec.Enc.u32i e s)
  | Close_session -> Codec.Enc.u8 e 2
  | Malloc { slabs } ->
      Codec.Enc.u8 e 3;
      Codec.Enc.u32i e slabs
  | Free { addr; slabs } ->
      Codec.Enc.u8 e 4;
      Codec.Enc.u64i e addr;
      Codec.Enc.u32i e slabs
  | Free_batch { addrs } ->
      Codec.Enc.u8 e 10;
      Codec.Enc.u32i e (List.length addrs);
      List.iter (Codec.Enc.u64i e) addrs
  | Name_get { name } ->
      Codec.Enc.u8 e 7;
      Codec.Enc.string e name
  | Register_ds { name } ->
      Codec.Enc.u8 e 8;
      Codec.Enc.string e name);
  Codec.Enc.to_bytes e

let decode_request b =
  let d = Codec.Dec.of_bytes b in
  match Codec.Dec.u8 d with
  | 1 ->
      let client_name = Codec.Dec.string d in
      let reuse =
        match Codec.Dec.u8 d with
        | 0 -> None
        | _ -> Some (Codec.Dec.u32i d)
      in
      Open_session { client_name; reuse }
  | 2 -> Close_session
  | 3 -> Malloc { slabs = Codec.Dec.u32i d }
  | 4 ->
      let addr = Codec.Dec.u64i d in
      let slabs = Codec.Dec.u32i d in
      Free { addr; slabs }
  | 7 -> Name_get { name = Codec.Dec.string d }
  | 8 -> Register_ds { name = Codec.Dec.string d }
  | 10 ->
      let n = Codec.Dec.u32i d in
      Free_batch { addrs = List.init n (fun _ -> Codec.Dec.u64i d) }
  | c -> invalid_arg (Printf.sprintf "Rpc_msg.decode_request: tag %d" c)

let encode_response r =
  let e = Codec.Enc.create () in
  (match r with
  | R_unit -> Codec.Enc.u8 e 1
  | R_addr a ->
      Codec.Enc.u8 e 2;
      Codec.Enc.u64i e a
  | R_session s ->
      Codec.Enc.u8 e 3;
      Codec.Enc.u32i e s
  | R_name None ->
      Codec.Enc.u8 e 4;
      Codec.Enc.u8 e 0
  | R_name (Some (kind, addr)) ->
      Codec.Enc.u8 e 4;
      Codec.Enc.u8 e 1;
      Codec.Enc.u8 e (Types.name_kind_code kind);
      Codec.Enc.u64i e addr
  | R_handle { ds; root; lock; sn } ->
      Codec.Enc.u8 e 5;
      Codec.Enc.u32i e ds;
      Codec.Enc.u64i e root;
      Codec.Enc.u64i e lock;
      Codec.Enc.u64i e sn
  | R_error msg ->
      Codec.Enc.u8 e 7;
      Codec.Enc.string e msg);
  Codec.Enc.to_bytes e

let decode_response b =
  let d = Codec.Dec.of_bytes b in
  match Codec.Dec.u8 d with
  | 1 -> R_unit
  | 2 -> R_addr (Codec.Dec.u64i d)
  | 3 -> R_session (Codec.Dec.u32i d)
  | 4 -> (
      match Codec.Dec.u8 d with
      | 0 -> R_name None
      | _ ->
          let kind = Types.name_kind_of_code (Codec.Dec.u8 d) in
          let addr = Codec.Dec.u64i d in
          R_name (Some (kind, addr)))
  | 5 ->
      let ds = Codec.Dec.u32i d in
      let root = Codec.Dec.u64i d in
      let lock = Codec.Dec.u64i d in
      let sn = Codec.Dec.u64i d in
      R_handle { ds; root; lock; sn }
  | 7 -> R_error (Codec.Dec.string d)
  | c -> invalid_arg (Printf.sprintf "Rpc_msg.decode_response: tag %d" c)

let pp_response fmt = function
  | R_unit -> Format.fprintf fmt "ok"
  | R_addr a -> Format.fprintf fmt "addr %#x" a
  | R_session s -> Format.fprintf fmt "session %d" s
  | R_name None -> Format.fprintf fmt "name: none"
  | R_name (Some (kind, addr)) -> Format.fprintf fmt "name: %a@%#x" Types.pp_name_kind kind addr
  | R_handle { ds; _ } -> Format.fprintf fmt "handle ds=%d" ds
  | R_error msg -> Format.fprintf fmt "error: %s" msg
