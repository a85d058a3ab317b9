(** The eight §8 structures behind one name table and one facade.

    This is the single place that knows the structure kinds: how each is
    spelled (the report label, e.g. ["BPT"], and the module name, e.g.
    ["pbptree"]), which ones are FIFO-like, and how to attach one over any
    {!Asym_core.Store.S} — the AsymNVM front-end or the symmetric
    baseline. The experiment harness and the crash checker both build
    their instances here. *)

type kind = Queue | Stack | Hash_table | Skip_list | Bst | Bpt | Mv_bst | Mv_bpt

val all : kind list
(** Report order: Queue, Stack, HashTable, SkipList, BST, BPT, MV-BST,
    MV-BPT. *)

val label : kind -> string
(** The report label (["HashTable"], ["MV-BPT"], ...). *)

val module_name : kind -> string
(** The implementing module's name (["phash"], ["pmvbptree"], ...) — the
    crash checker's spelling. *)

val of_name : string -> kind option
(** Inverse of both {!label} and {!module_name}, ignoring case and dashes
    (["mv-bpt"], ["MVBPT"] and ["pmvbptree"] all resolve to [Mv_bpt]). *)

val is_fifo : kind -> bool
(** Queue and stack: [push]/[pop] instead of key/value operations. *)

(** One attached structure instance. Key/value structures implement
    [put]/[get]/[del]; queue/stack implement [push]/[pop]; the wrong
    family raises [Invalid_argument]. *)
type instance = {
  put : int64 -> bytes -> unit;
  get : int64 -> bytes option;
  del : int64 -> bool;
  push : bytes -> unit;
  pop : unit -> bytes option;
  vput : ((int64 * bytes) list -> unit) option;  (** Algorithm 3, BST/BPT only *)
  cleanup : unit -> unit;  (** flush logs, drain deferred GC *)
  register : Registry.t -> unit;  (** register the replay handler for recovery *)
  dump : unit -> (int64 * bytes) list;
      (** Canonical state: maps key-sorted, sequences position-indexed
          from the head (queue) or top (stack). *)
}

module Make (S : Asym_core.Store.S) : sig
  val attach :
    opts:Ds_intf.options -> ?nbuckets:int -> ?rng:Asym_util.Rng.t -> kind -> S.t -> name:string ->
    instance
  (** Create or open the persistent structure [name]. [nbuckets] reaches
      only the hash table and [rng] only the skiplist; each structure's
      own default applies when omitted. *)
end
