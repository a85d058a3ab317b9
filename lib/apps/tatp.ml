(** The TATP (Telecom Application Transaction Processing) benchmark.

    Four tables indexed by persistent B+Trees — the paper uses the B+Tree
    as TATP's index structure:
    - Subscriber            (s_id)
    - Access_Info           (s_id, ai_type 1..4)
    - Special_Facility      (s_id, sf_type 1..4)
    - Call_Forwarding       (s_id, sf_type, start_time in {0,8,16})

    Composite keys are packed into an int64 ([s_id * 64 + sf_type * 8 +
    slot]). The standard seven transactions with the standard mix (80%
    reads / 20% writes) are implemented; records are fixed-shape byte
    strings as in the TATP spec (sub_nbr, bits/hex fields, vlr_location). *)

open Asym_core
open Asym_structs

type txn =
  | Get_subscriber_data  (** 35% *)
  | Get_new_destination  (** 10% *)
  | Get_access_data  (** 35% *)
  | Update_subscriber_data  (** 2% *)
  | Update_location  (** 14% *)
  | Insert_call_forwarding  (** 2% *)
  | Delete_call_forwarding  (** 2% *)

let default_mix =
  [
    (Get_subscriber_data, 35); (Get_new_destination, 10); (Get_access_data, 35);
    (Update_subscriber_data, 2); (Update_location, 14); (Insert_call_forwarding, 2);
    (Delete_call_forwarding, 2);
  ]

module Make (S : Store.S) = struct
  module T = Pbptree.Make (S)

  type t = {
    subscriber : T.t;
    access_info : T.t;
    special_facility : T.t;
    call_forwarding : T.t;
    mutable commits : int;
    mutable aborts : int;
  }

  let key_sub s_id = Int64.of_int (s_id * 64)
  let key_ai s_id ai_type = Int64.of_int ((s_id * 64) + (8 * 0) + ai_type)
  let key_sf s_id sf_type = Int64.of_int ((s_id * 64) + (8 * sf_type))
  let key_cf s_id sf_type slot = Int64.of_int ((s_id * 64) + (8 * sf_type) + 1 + slot)

  (* Record payloads: fixed-shape synthetic fields per the TATP spec. *)
  let sub_record ~s_id ~bits ~vlr =
    let b = Bytes.create 40 in
    Bytes.set_int64_le b 0 (Int64.of_int s_id);
    Bytes.set_int64_le b 8 (Int64.of_int bits);
    Bytes.set_int64_le b 16 (Int64.of_int vlr);
    Bytes.blit_string (Printf.sprintf "%015d" s_id) 0 b 24 15;
    b

  let ai_record ai_type = Bytes.of_string (Printf.sprintf "ai%02d-data1-data2-data3" ai_type)
  let sf_record ~active = Bytes.of_string (if active then "sf-active-data" else "sf-idle-data  ")
  let cf_record numberx = Bytes.of_string (Printf.sprintf "cf->%015d" numberx)

  let attach ?opts s ~name =
    {
      subscriber = T.attach ?opts s ~name:(name ^ ".subscriber");
      access_info = T.attach ?opts s ~name:(name ^ ".access_info");
      special_facility = T.attach ?opts s ~name:(name ^ ".special_facility");
      call_forwarding = T.attach ?opts s ~name:(name ^ ".call_forwarding");
      commits = 0;
      aborts = 0;
    }

  (* Population per the TATP spec: every subscriber has 1-4 access-info
     rows and 1-4 special facilities, each with 0-3 call forwardings. *)
  let populate t rng ~subscribers =
    for s_id = 0 to subscribers - 1 do
      T.put t.subscriber ~key:(key_sub s_id)
        ~value:(sub_record ~s_id ~bits:(Asym_util.Rng.int rng 256) ~vlr:(Asym_util.Rng.int rng 1000000));
      let n_ai = 1 + Asym_util.Rng.int rng 4 in
      for ai_type = 1 to n_ai do
        T.put t.access_info ~key:(key_ai s_id ai_type) ~value:(ai_record ai_type)
      done;
      let n_sf = 1 + Asym_util.Rng.int rng 4 in
      for sf_type = 1 to n_sf do
        T.put t.special_facility ~key:(key_sf s_id sf_type)
          ~value:(sf_record ~active:(Asym_util.Rng.int rng 100 < 85));
        let n_cf = Asym_util.Rng.int rng 4 in
        for slot = 0 to n_cf - 1 do
          T.put t.call_forwarding ~key:(key_cf s_id sf_type slot)
            ~value:(cf_record (Asym_util.Rng.int rng 1000000))
        done
      done
    done

  let commit t = t.commits <- t.commits + 1
  let abort t = t.aborts <- t.aborts + 1

  (* -- the seven transactions -- *)

  let get_subscriber_data t ~s_id =
    match T.find t.subscriber ~key:(key_sub s_id) with
    | Some r ->
        commit t;
        Some r
    | None ->
        abort t;
        None

  let get_new_destination t ~s_id ~sf_type ~start_time =
    let slot = start_time / 8 in
    match T.find t.special_facility ~key:(key_sf s_id sf_type) with
    | None ->
        abort t;
        None
    | Some _ -> (
        match T.find t.call_forwarding ~key:(key_cf s_id sf_type slot) with
        | Some r ->
            commit t;
            Some r
        | None ->
            abort t;
            None)

  let get_access_data t ~s_id ~ai_type =
    match T.find t.access_info ~key:(key_ai s_id ai_type) with
    | Some r ->
        commit t;
        Some r
    | None ->
        abort t;
        None

  let update_subscriber_data t ~s_id ~sf_type ~bits =
    match T.find t.subscriber ~key:(key_sub s_id) with
    | None ->
        abort t;
        false
    | Some r -> (
        Bytes.set_int64_le r 8 (Int64.of_int bits);
        T.put t.subscriber ~key:(key_sub s_id) ~value:r;
        match T.find t.special_facility ~key:(key_sf s_id sf_type) with
        | None ->
            abort t;
            false
        | Some _ ->
            T.put t.special_facility ~key:(key_sf s_id sf_type) ~value:(sf_record ~active:true);
            commit t;
            true)

  let update_location t ~s_id ~vlr =
    match T.find t.subscriber ~key:(key_sub s_id) with
    | None ->
        abort t;
        false
    | Some r ->
        Bytes.set_int64_le r 16 (Int64.of_int vlr);
        T.put t.subscriber ~key:(key_sub s_id) ~value:r;
        commit t;
        true

  let insert_call_forwarding t ~s_id ~sf_type ~start_time ~numberx =
    let slot = start_time / 8 in
    match T.find t.special_facility ~key:(key_sf s_id sf_type) with
    | None ->
        abort t;
        false
    | Some _ ->
        if T.mem t.call_forwarding ~key:(key_cf s_id sf_type slot) then begin
          (* Primary-key violation aborts, per the spec. *)
          abort t;
          false
        end
        else begin
          T.put t.call_forwarding ~key:(key_cf s_id sf_type slot) ~value:(cf_record numberx);
          commit t;
          true
        end

  let delete_call_forwarding t ~s_id ~sf_type ~start_time =
    let slot = start_time / 8 in
    if T.delete t.call_forwarding ~key:(key_cf s_id sf_type slot) then begin
      commit t;
      true
    end
    else begin
      abort t;
      false
    end

  let commits t = t.commits
  let aborts t = t.aborts
  let subscriber_table t = t.subscriber

  let run_random t rng ~subscribers ~mix =
    let total = List.fold_left (fun a (_, w) -> a + w) 0 mix in
    let roll = Asym_util.Rng.int rng total in
    let rec pick acc = function
      | [] -> Get_subscriber_data
      | (txn, w) :: rest -> if roll < acc + w then txn else pick (acc + w) rest
    in
    let s_id = Asym_util.Rng.int rng subscribers in
    let sf_type = 1 + Asym_util.Rng.int rng 4 in
    let ai_type = 1 + Asym_util.Rng.int rng 4 in
    let start_time = 8 * Asym_util.Rng.int rng 3 in
    match pick 0 mix with
    | Get_subscriber_data -> ignore (get_subscriber_data t ~s_id)
    | Get_new_destination -> ignore (get_new_destination t ~s_id ~sf_type ~start_time)
    | Get_access_data -> ignore (get_access_data t ~s_id ~ai_type)
    | Update_subscriber_data ->
        ignore (update_subscriber_data t ~s_id ~sf_type ~bits:(Asym_util.Rng.int rng 256))
    | Update_location -> ignore (update_location t ~s_id ~vlr:(Asym_util.Rng.int rng 1000000))
    | Insert_call_forwarding ->
        ignore
          (insert_call_forwarding t ~s_id ~sf_type ~start_time
             ~numberx:(Asym_util.Rng.int rng 1000000))
    | Delete_call_forwarding -> ignore (delete_call_forwarding t ~s_id ~sf_type ~start_time)
end
