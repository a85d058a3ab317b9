(** The SmallBank transaction benchmark (paper §9.2, Table 3's
    TX(SmallBank) row).

    Checking and savings balances are indexed by two persistent hash
    tables — the structure the paper assigns to SmallBank. The six
    standard transaction profiles are implemented with the standard
    semantics (abort on missing accounts, overdraft rules, the write-check
    penalty, distinct-account requirements). Balances are signed 64-bit
    cent amounts. *)

type txn = Amalgamate | Balance | Deposit_checking | Send_payment | Transact_savings | Write_check

val default_mix : (txn * int) list
(** The standard 15/15/15/25/15/15 SmallBank mix (weights). *)

module Make (S : Asym_core.Store.S) : sig
  module H : module type of Asym_structs.Phash.Make (S)

  type t

  val create :
    ?opts:Asym_structs.Ds_intf.options -> S.t -> name:string -> accounts:int -> initial_balance:int64 -> t
  (** Create the two tables and open every account with the given balance
      in both checking and savings. *)

  val attach : ?opts:Asym_structs.Ds_intf.options -> S.t -> name:string -> t
  (** Open an existing bank (after recovery or from another front-end). *)

  (** {2 The six transaction profiles} *)

  val balance : t -> cust:int64 -> int64 option
  val deposit_checking : t -> cust:int64 -> amount:int64 -> bool
  val transact_savings : t -> cust:int64 -> amount:int64 -> bool
  val amalgamate : t -> from_cust:int64 -> to_cust:int64 -> bool
  val send_payment : t -> from_cust:int64 -> to_cust:int64 -> amount:int64 -> bool
  val write_check : t -> cust:int64 -> amount:int64 -> bool

  (** {2 Harness hooks} *)

  val run_random :
    ?cust_gen:(unit -> int64) -> t -> Asym_util.Rng.t -> accounts:int -> mix:(txn * int) list ->
    unit
  (** Draw one transaction from the weighted [mix] and execute it;
      [cust_gen] overrides the account distribution (e.g. Zipfian). *)

  val commits : t -> int
  val aborts : t -> int

  val total_assets : t -> accounts:int -> int64
  (** Sum of every balance — the conservation invariant the tests check. *)

  val checking : t -> H.t
  val savings : t -> H.t
end
