(** Shared aliases and small types used across the AsymNVM framework. *)

type addr = int
(** Byte offset into a back-end NVM device. *)

type ds_id = int
(** Identifier of one persistent data-structure instance, as registered in
    the back-end's global naming space. The back-end keeps one sequence
    number per [ds_id], which optimistic readers validate against
    (Algorithm 2). *)

type session_id = int
(** Identifier of one front-end connection to a back-end. Each session owns
    a memory-log ring, an operation-log ring and an RPC ring pair. *)

type handle = {
  id : ds_id;
  root : addr;  (** 8-byte root reference word *)
  lock : addr;  (** exclusive writer lock word *)
  sn : addr;  (** sequence-number word (Algorithm 2) *)
  ds_name : string;
}
(** Everything a front-end needs to operate one persistent data structure,
    as handed out by the back-end's naming space. *)

(** Kind tags stored with entries of the global naming space (§5.1). *)
type name_kind =
  | Root  (** root reference of a data structure *)
  | Lock  (** exclusive writer lock word *)
  | Seqno  (** reader-validation sequence number word *)
  | Partition_map  (** key-range / partition mapping table *)
  | Meta  (** anything else a data structure wants found after recovery *)

let name_kind_code = function
  | Root -> 0
  | Lock -> 1
  | Seqno -> 2
  | Partition_map -> 3
  | Meta -> 4

let name_kind_of_code = function
  | 0 -> Root
  | 1 -> Lock
  | 2 -> Seqno
  | 3 -> Partition_map
  | 4 -> Meta
  | c -> invalid_arg (Printf.sprintf "Types.name_kind_of_code: %d" c)

let pp_name_kind fmt k =
  Format.pp_print_string fmt
    (match k with
    | Root -> "root"
    | Lock -> "lock"
    | Seqno -> "seqno"
    | Partition_map -> "partition-map"
    | Meta -> "meta")
