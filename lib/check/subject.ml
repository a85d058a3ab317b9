open Asym_structs

type instance = Catalog.instance

let apply (inst : instance) = function
  | Model.Put (k, v) -> inst.put k v
  | Model.Delete k -> ignore (inst.del k)
  | Model.Push v -> inst.push v
  | Model.Pop -> ignore (inst.pop ())

let resume attach fe ops =
  let inst : instance = attach fe in
  let reg = Registry.create () in
  inst.register reg;
  Registry.replay_all reg ops;
  Asym_core.Client.flush fe;
  inst

module Attach (S : Asym_core.Store.S) = struct
  module C = Catalog.Make (S)

  let attach ?(name = "chk") kind s =
    C.attach ~opts:Ds_intf.default_options ~nbuckets:64
      ~rng:(Asym_util.Rng.create ~seed:77L)
      kind s ~name
end

module On_client = Attach (Asym_core.Client)

type t = {
  name : string;
  structure : Catalog.kind;
  kind : [ `Map | `Seq ];
  model0 : Model.t;
  attach : ?name:string -> Asym_core.Client.t -> instance;
}

let of_kind (structure : Catalog.kind) =
  {
    name = Catalog.module_name structure;
    structure;
    kind = (if Catalog.is_fifo structure then `Seq else `Map);
    model0 =
      (match structure with
      | Queue -> Model.empty_fifo
      | Stack -> Model.empty_lifo
      | _ -> Model.empty_map);
    attach = (fun ?name fe -> On_client.attach ?name structure fe);
  }

let all = List.map of_kind [ Stack; Queue; Hash_table; Bst; Bpt; Skip_list; Mv_bst; Mv_bpt ]
let names = List.map (fun s -> s.name) all
let find name = Option.map of_kind (Catalog.of_name name)
