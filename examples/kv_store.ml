(* A partitioned key/value store over disaggregated NVM.

   The scenario the paper's introduction motivates: several application
   servers (front-ends) share a pool of NVM blades (back-ends) much larger
   than any one server's DRAM. Here a hash-table KV store is partitioned
   over two back-end blades, driven by a Zipfian YCSB workload from two
   front-ends, reports throughput/cache statistics per front-end, and
   checks that every key reads back through the second front-end.

   Run with: dune exec examples/kv_store.exe *)

open Asym_core
open Asym_sim
module H = Asym_structs.Phash.Make (Client)

let blades = 2
let frontends = 2
let keys = 20_000
let ops_per_frontend = 30_000

let () =
  Fmt.pr "== Disaggregated KV store: %d front-ends over %d NVM blades ==@.@." frontends blades;
  let backends =
    List.init blades (fun i ->
        Backend.create
          ~name:(Printf.sprintf "blade%d" i)
          ~capacity:(96 * 1024 * 1024) Latency.default)
  in
  (* Each front-end node connects to every blade and routes by key hash. *)
  let make_frontend fi =
    let clock = Clock.create ~name:(Printf.sprintf "fe%d" fi) () in
    let parts =
      List.map
        (fun bk ->
          let c =
            Client.connect
              ~name:(Printf.sprintf "fe%d->%s" fi (Backend.name bk))
              (Client.rc ~cache_bytes:(2 * 1024 * 1024) ()) bk ~clock
          in
          (c, H.attach ~nbuckets:16384 c ~name:"kv"))
        backends
    in
    (clock, Array.of_list parts)
  in
  let fes = List.init frontends make_frontend in
  let route parts key = parts.(Asym_structs.Partition.hash key blades) in

  (* Front-end 0 loads the data set. *)
  let _, parts0 = List.hd fes in
  for i = 0 to keys - 1 do
    let key = Int64.of_int i in
    H.put (snd (route parts0 key)) ~key ~value:(Bytes.make 64 'v')
  done;
  Fmt.pr "loaded %d keys across the blades@." keys;
  List.iteri
    (fun i bk -> Fmt.pr "  blade%d: %d slabs in use@." i (Backend.used_slabs bk))
    backends;

  (* All front-ends run a 95%% read / 5%% update Zipfian workload. *)
  let run fi (clock, parts) =
    let rng = Asym_util.Rng.create ~seed:(Int64.of_int (42 + fi)) in
    let gen =
      Asym_workload.Ycsb.create ~distribution:(Asym_workload.Ycsb.Zipfian 0.99) ~keyspace:keys
        ~put_ratio:0.05 rng
    in
    let t0 = Clock.now clock in
    for _ = 1 to ops_per_frontend do
      match Asym_workload.Ycsb.next gen with
      | Asym_workload.Ycsb.Put (key, value) -> H.put (snd (route parts key)) ~key ~value
      | Asym_workload.Ycsb.Get key -> ignore (H.get (snd (route parts key)) ~key)
    done;
    let elapsed = Clock.now clock - t0 in
    let hits, misses =
      Array.fold_left
        (fun (h, m) (c, _) ->
          let h', m' = Client.cache_stats c in
          (h + h', m + m'))
        (0, 0) parts
    in
    Fmt.pr "fe%d: %d ops in %a -> %.1f KOPS; cache hit ratio %.1f%%@." fi ops_per_frontend
      Simtime.pp elapsed
      (float_of_int ops_per_frontend /. Simtime.to_sec elapsed /. 1000.0)
      (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)))
  in
  List.iteri run fes;
  Fmt.pr "(fe0 is warm — it loaded the data; fe1 starts with a cold cache)@.";
  (* Every loaded key is still reachable through the other front-end. *)
  let _, parts1 = List.nth fes 1 in
  let missing = ref 0 in
  for i = 0 to keys - 1 do
    let key = Int64.of_int i in
    if H.get (snd (route parts1 key)) ~key = None then incr missing
  done;
  if !missing = 0 then Fmt.pr "@.kv_store OK@."
  else begin
    Fmt.pr "@.kv_store FAILED: %d keys missing@." !missing;
    exit 1
  end
