open Asym_core

let elect mirrors =
  let live = List.filter (fun m -> not (Mirror.is_crashed m)) mirrors in
  match List.find_opt (fun m -> Mirror.kind m = Mirror.Nvm_backed) live with
  | Some m -> Some m
  | None -> ( match live with m :: _ -> Some m | [] -> None)

let promote ?(name = "promoted-backend") m lat =
  Asym_obs.Span.instant ~cat:"fault" ~track:(Mirror.name m) "mirror.promote";
  match Mirror.kind m with
  | Mirror.Nvm_backed -> Backend.of_device ~name (Mirror.device m) lat
  | Mirror.Ssd_backed ->
      let src = Mirror.device m in
      let dev =
        Asym_nvm.Device.create ~name:(name ^ ".nvm")
          ~capacity:(Asym_nvm.Device.capacity src) lat
      in
      Asym_nvm.Device.copy_from dev ~src;
      Backend.of_device ~name dev lat

let failover ?name ~dead lat =
  match elect (Backend.mirrors dead) with
  | None -> None
  | Some m -> Some (promote ?name m lat)
