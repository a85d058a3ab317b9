(** Uniform checker-facing view of every persistent structure.

    A subject binds one {!Asym_structs.Catalog} kind to its reference
    model: the initial model state and how a {!Model.op} is applied
    through the attached instance. The explorer and fuzzer drive
    structures exclusively through this record, which is what makes the
    sweep "for every registered structure" one loop over {!all}. *)

type instance = Asym_structs.Catalog.instance
(** [dump] is canonical — maps key-sorted, sequences position-indexed —
    and so comparable with [Model.dump] by structural equality. *)

val apply : instance -> Model.op -> unit
(** Puts and deletes on maps, pushes and pops on sequences; the wrong
    family raises [Invalid_argument]. *)

val resume :
  (Asym_core.Client.t -> instance) -> Asym_core.Client.t -> Asym_core.Log.Op_entry.t list ->
  instance
(** [resume attach fe ops] finishes a recovery: with [ops] what
    {!Asym_core.Client.recover} returned for [fe], re-attach the instance
    through [attach], replay [ops] through a {!Asym_structs.Registry} and
    flush. *)

(** The checker's attach over any store: default options (no lock), a
    64-bucket hash table, and a fresh fixed-seed generator per attach, so
    re-runs of one schedule draw the same skiplist tower heights. [name]
    (default ["chk"]) is the persistent name — distinct names let several
    clients own independent instances on one back-end. *)
module Attach (S : Asym_core.Store.S) : sig
  val attach : ?name:string -> Asym_structs.Catalog.kind -> S.t -> instance
end

type t = {
  name : string;  (** the module name, as reproducers spell it *)
  structure : Asym_structs.Catalog.kind;
  kind : [ `Map | `Seq ];
  model0 : Model.t;
  attach : ?name:string -> Asym_core.Client.t -> instance;  (** {!Attach} over the front-end *)
}

val of_kind : Asym_structs.Catalog.kind -> t

val all : t list
(** The eight structures of §8, in a stable order. *)

val names : string list

val find : string -> t option
(** By {!Asym_structs.Catalog.of_name}. *)
