(** One front-end node operating a structure spread over several back-end
    NVM blades (§4.3 / §8.3 / Figure 10).

    The front-end keeps one connection per back-end (all on its clock);
    keys route by {!Partition.hash}; the partition count is persisted by
    {!Partition}'s map on back-end 0's naming space. Each partition is an
    independent instance with its own lock and index, so the usual SWMR
    rules apply per partition. *)

type 'ds t

val create :
  ?cfg:Asym_core.Client.config ->
  ?name:string ->
  clock:Asym_sim.Clock.t ->
  backends:Asym_core.Backend.t list ->
  attach:(Asym_core.Client.t -> int -> 'ds) ->
  unit ->
  'ds t
(** [attach client i] builds or opens partition [i] on [client]. Opening
    an existing deployment with fewer back-ends than the persisted
    partition count raises [Invalid_argument]. *)

val npartitions : 'ds t -> int
val route : 'ds t -> int64 -> 'ds
val part : 'ds t -> int -> 'ds
val client : 'ds t -> int -> Asym_core.Client.t
val iter_parts : 'ds t -> (int -> 'ds -> unit) -> unit

val flush_all : 'ds t -> unit
(** [rnvm_tx_write] on every connection. *)

val crash : 'ds t -> unit
(** Drop the front-end's volatile state on every connection. *)

val recover : 'ds t -> replay:(int -> Asym_core.Log.Op_entry.t list -> unit) -> unit
(** Recover every session; [replay i ops] re-executes partition [i]'s
    uncovered operations (§7.2). *)
