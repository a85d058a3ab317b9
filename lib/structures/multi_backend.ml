(** One front-end node operating a structure spread over several back-end
    NVM blades (§4.3: "To support a data structure larger than the
    capacity of the NVM in a single back-end node, AsymNVM supports a
    distributed data structure partitioning across multiple back-ends").

    The front-end opens one connection (one {!Asym_core.Client}) per
    back-end, all sharing its clock; keys route by {!Partition.hash}; the
    partition map is {!Partition}'s, persisted in back-end 0's naming
    space so recovery and other front-ends route identically. *)

open Asym_core
module Pmap = Partition.Make (Client)

type 'ds t = {
  clients : Client.t array;
  parts : 'ds array;
  name : string;
}

let create ?(cfg = Client.rcb ()) ?(name = "mb") ~clock ~backends ~attach () =
  let backends = Array.of_list backends in
  let n = Array.length backends in
  if n = 0 then invalid_arg "Multi_backend.create: no back-ends";
  let clients =
    Array.mapi
      (fun _i bk ->
        Client.connect ~name:(Printf.sprintf "%s->%s" name (Backend.name bk)) cfg bk ~clock)
      backends
  in
  (* Persist (or read back) the partition count on back-end 0. *)
  let p = Pmap.npartitions (Pmap.create clients.(0) ~name ~n ~attach:Fun.id) in
  if p > n then
    invalid_arg
      (Printf.sprintf "Multi_backend.create: map says %d partitions, only %d back-ends" p n);
  let parts = Array.init p (fun i -> attach clients.(i) i) in
  { clients; parts; name }

let npartitions t = Array.length t.parts
let route t key = t.parts.(Partition.hash key (Array.length t.parts))
let part t i = t.parts.(i)
let client t i = t.clients.(i)
let iter_parts t f = Array.iteri f t.parts

let flush_all t = Array.iter Client.flush t.clients

(* Crash every connection's volatile state and recover each partition,
   handing the uncovered operations of partition [i] to [replay i]. *)
let crash t = Array.iter Client.crash t.clients

let recover t ~replay =
  Array.iteri
    (fun i c ->
      let ops = Client.recover c in
      replay i ops)
    t.clients
