(** The SmallBank transaction benchmark over the AsymNVM framework.

    Two persistent hash tables index the checking and savings balances by
    customer id — the paper uses the hash table as SmallBank's index
    structure. The six standard transaction profiles are implemented;
    balances are signed 64-bit amounts (cents). Every balance mutation is
    a logged data-structure operation, so crash recovery replays exactly
    the acked transactions. *)

open Asym_core
open Asym_structs

type txn = Amalgamate | Balance | Deposit_checking | Send_payment | Transact_savings | Write_check

(* The standard SmallBank mix: 15/15/15/25/15/15. *)
let default_mix =
  [
    (Amalgamate, 15); (Balance, 15); (Deposit_checking, 15); (Send_payment, 25);
    (Transact_savings, 15); (Write_check, 15);
  ]

module Make (S : Store.S) = struct
  module H = Phash.Make (S)

  type t = { checking : H.t; savings : H.t; mutable aborts : int; mutable commits : int }

  let amount_of_bytes b = Bytes.get_int64_le b 0

  let bytes_of_amount v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    b

  let create ?opts s ~name ~accounts ~initial_balance =
    let checking = H.attach ?opts ~nbuckets:(max 64 accounts) s ~name:(name ^ ".checking") in
    let savings = H.attach ?opts ~nbuckets:(max 64 accounts) s ~name:(name ^ ".savings") in
    let t = { checking; savings; aborts = 0; commits = 0 } in
    for i = 0 to accounts - 1 do
      let key = Int64.of_int i in
      H.put checking ~key ~value:(bytes_of_amount initial_balance);
      H.put savings ~key ~value:(bytes_of_amount initial_balance)
    done;
    t

  let attach ?opts s ~name =
    {
      checking = H.attach ?opts s ~name:(name ^ ".checking");
      savings = H.attach ?opts s ~name:(name ^ ".savings");
      aborts = 0;
      commits = 0;
    }

  let read_balance tbl ~key =
    match H.get tbl ~key with Some b -> Some (amount_of_bytes b) | None -> None

  let write_balance tbl ~key v = H.put tbl ~key ~value:(bytes_of_amount v)

  let commit t = t.commits <- t.commits + 1
  let abort t = t.aborts <- t.aborts + 1

  (* -- the six transaction profiles -- *)

  let balance t ~cust =
    match (read_balance t.checking ~key:cust, read_balance t.savings ~key:cust) with
    | Some c, Some s ->
        commit t;
        Some (Int64.add c s)
    | _ ->
        abort t;
        None

  let deposit_checking t ~cust ~amount =
    if amount < 0L then begin
      abort t;
      false
    end
    else
      match read_balance t.checking ~key:cust with
      | None ->
          abort t;
          false
      | Some c ->
          write_balance t.checking ~key:cust (Int64.add c amount);
          commit t;
          true

  let transact_savings t ~cust ~amount =
    match read_balance t.savings ~key:cust with
    | None ->
        abort t;
        false
    | Some s ->
        let ns = Int64.add s amount in
        if ns < 0L then begin
          abort t;
          false
        end
        else begin
          write_balance t.savings ~key:cust ns;
          commit t;
          true
        end

  let amalgamate t ~from_cust ~to_cust =
    if from_cust = to_cust then begin
      (* Self-amalgamation would double-count the balances read before the
         zeroing writes; the spec requires distinct accounts. *)
      abort t;
      false
    end
    else
      match
      ( read_balance t.checking ~key:from_cust,
        read_balance t.savings ~key:from_cust,
        read_balance t.checking ~key:to_cust )
    with
    | Some fc, Some fs, Some tc ->
        write_balance t.checking ~key:from_cust 0L;
        write_balance t.savings ~key:from_cust 0L;
        write_balance t.checking ~key:to_cust (Int64.add tc (Int64.add fc fs));
        commit t;
        true
    | _ ->
        abort t;
        false

  let send_payment t ~from_cust ~to_cust ~amount =
    if from_cust = to_cust then begin
      abort t;
      false
    end
    else
    match (read_balance t.checking ~key:from_cust, read_balance t.checking ~key:to_cust) with
    | Some fc, Some tc when fc >= amount ->
        write_balance t.checking ~key:from_cust (Int64.sub fc amount);
        write_balance t.checking ~key:to_cust (Int64.add tc amount);
        commit t;
        true
    | _ ->
        abort t;
        false

  let write_check t ~cust ~amount =
    match (read_balance t.checking ~key:cust, read_balance t.savings ~key:cust) with
    | Some c, Some s ->
        (* Overdraft penalty of 1 when the check exceeds total assets. *)
        let penalty = if Int64.add c s < amount then 1L else 0L in
        write_balance t.checking ~key:cust (Int64.sub c (Int64.add amount penalty));
        commit t;
        true
    | _ ->
        abort t;
        false

  let commits t = t.commits
  let aborts t = t.aborts

  (* Total money in the bank — conserved by every profile except
     write_check (which burns the amount) and deposits (which mint it);
     used by the invariant tests. *)
  let total_assets t ~accounts =
    let sum = ref 0L in
    for i = 0 to accounts - 1 do
      let key = Int64.of_int i in
      (match read_balance t.checking ~key with Some v -> sum := Int64.add !sum v | None -> ());
      match read_balance t.savings ~key with Some v -> sum := Int64.add !sum v | None -> ()
    done;
    !sum

  let checking t = t.checking
  let savings t = t.savings

  (* Run one randomly drawn transaction (harness entry point).
     [cust_gen] overrides the account distribution (e.g. Zipfian). *)
  let run_random ?cust_gen t rng ~accounts ~mix =
    let total = List.fold_left (fun a (_, w) -> a + w) 0 mix in
    let roll = Asym_util.Rng.int rng total in
    let rec pick acc = function
      | [] -> Balance
      | (txn, w) :: rest -> if roll < acc + w then txn else pick (acc + w) rest
    in
    let cust () =
      match cust_gen with
      | Some g -> g ()
      | None -> Int64.of_int (Asym_util.Rng.int rng accounts)
    in
    let amount () = Int64.of_int (1 + Asym_util.Rng.int rng 100) in
    match pick 0 mix with
    | Amalgamate -> ignore (amalgamate t ~from_cust:(cust ()) ~to_cust:(cust ()))
    | Balance -> ignore (balance t ~cust:(cust ()))
    | Deposit_checking -> ignore (deposit_checking t ~cust:(cust ()) ~amount:(amount ()))
    | Send_payment -> ignore (send_payment t ~from_cust:(cust ()) ~to_cust:(cust ()) ~amount:(amount ()))
    | Transact_savings -> ignore (transact_savings t ~cust:(cust ()) ~amount:(amount ()))
    | Write_check -> ignore (write_check t ~cust:(cust ()) ~amount:(amount ()))
end
