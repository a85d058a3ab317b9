(** Key-hash partitioning (§8.3).

    A partitioned structure is an array of independent instances — each
    with its own writer lock and index — plus a persistent partition map.
    While a writer works in one partition, readers proceed in all others;
    spreading partitions over several back-ends removes the single-NIC
    bottleneck (Figure 10). The partition count is persisted in the global
    naming space (as the root word of a dedicated map entry) so recovery
    can re-route keys identically. *)

open Asym_core

let hash key n =
  let z = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int n))

module Make (S : Store.S) = struct
  type 'ds t = { parts : 'ds array; name : string }

  (* [map_store] is where the partition map lives (typically partition 0's
     store); [attach i] builds or opens the i-th underlying instance. *)
  let create map_store ~name ~n ~attach =
    assert (n >= 1);
    let h = S.register_ds map_store (name ^ "!pmap") in
    let persisted = S.read_u64 ~hint:`Hot map_store h.Types.root in
    let n =
      if persisted = 0L then begin
        S.write_u64 map_store ~ds:h.Types.id h.Types.root (Int64.of_int n);
        S.flush map_store;
        n
      end
      else Int64.to_int persisted
    in
    { parts = Array.init n (fun i -> attach i); name }

  let npartitions t = Array.length t.parts
  let route t key = t.parts.(hash key (Array.length t.parts))
  let part t i = t.parts.(i)
  let iter_parts t f = Array.iter f t.parts
end
