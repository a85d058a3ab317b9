(* SmallBank with high availability: the back-end NVM blade dies
   permanently mid-workload and the NVM mirror is voted in as the new
   back-end (paper §7, Case 4). Money must never be created or destroyed
   by the fail-over.

   Run with: dune exec examples/bank.exe *)

open Asym_core
open Asym_sim
module Bank = Asym_apps.Smallbank.Make (Client)

let accounts = 2_000
let initial = 1_000L

let () =
  Fmt.pr "== SmallBank with mirror fail-over ==@.@.";
  let backend = Backend.create ~name:"primary" ~capacity:(64 * 1024 * 1024) Latency.default in
  let mirror =
    Mirror.create ~name:"mirror" ~kind:Mirror.Nvm_backed ~capacity:(64 * 1024 * 1024)
      Latency.default
  in
  Backend.attach_mirror backend mirror;
  let clock = Clock.create ~name:"teller" () in
  let fe = Client.connect ~name:"teller" (Client.rc ()) backend ~clock in
  let bank = Bank.create fe ~name:"bank" ~accounts ~initial_balance:initial in
  Client.flush fe;
  Fmt.pr "opened %d accounts with %Ld cents in checking and savings each@." accounts initial;

  (* Only money-conserving transactions, so the total is an invariant. *)
  let conserving = Asym_apps.Smallbank.[ (Amalgamate, 30); (Balance, 30); (Send_payment, 40) ] in
  let rng = Asym_util.Rng.create ~seed:7L in
  for _ = 1 to 5_000 do
    Bank.run_random bank rng ~accounts ~mix:conserving
  done;
  Client.flush fe;
  let expected = Int64.mul (Int64.of_int (2 * accounts)) initial in
  Fmt.pr "5000 transactions done (%d committed, %d aborted)@." (Bank.commits bank)
    (Bank.aborts bank);

  (* Disaster: the primary blade burns down. The keepAlive service expires
     its lease; the mirrors vote; the NVM mirror is promoted. *)
  Fmt.pr "@.primary back-end fails permanently...@.";
  Backend.crash backend;
  let keepalive = Asym_cluster.Keepalive.create (Asym_util.Rng.create ~seed:1L) in
  Asym_cluster.Keepalive.register keepalive "primary" ~now:(Clock.now clock);
  let later = Clock.now clock + Simtime.ms 50 in
  assert (not (Asym_cluster.Keepalive.alive keepalive "primary" ~now:later));
  Fmt.pr "keepAlive: primary's lease expired; electing a successor@.";
  (match Asym_cluster.Failover.failover ~dead:backend Latency.default with
  | None -> failwith "no live mirror"
  | Some backend' ->
      Fmt.pr "mirror promoted: %s@." (Backend.name backend');
      (* An RC teller logs no operations: recovery returns none to re-execute. *)
      ignore (Client.recover ~backend:backend' fe));

  let bank = Bank.attach fe ~name:"bank" in
  let total = Bank.total_assets bank ~accounts in
  Fmt.pr "@.total assets after fail-over: %Ld (expected %Ld) -> %s@." total expected
    (if total = expected then "conserved" else "LOST MONEY");

  (* Business continues on the promoted blade. *)
  for _ = 1 to 1_000 do
    Bank.run_random bank rng ~accounts ~mix:conserving
  done;
  Client.flush fe;
  let total' = Bank.total_assets bank ~accounts in
  Fmt.pr "1000 more transactions on the new primary; total: %Ld@." total';
  if total = expected && total' = expected then Fmt.pr "@.bank OK@."
  else begin
    Fmt.pr "@.bank FAILED@.";
    exit 1
  end
