(** The storage interface persistent data structures are written against.

    Two implementations exist:
    - {!Client} — the AsymNVM front-end: remote NVM over one-sided RDMA
      with memory/operation logs, caching and batching;
    - [Asym_baseline.Local_store] — the best-possible symmetric
      architecture: structures live in local NVM, logs are shipped to a
      remote NVM asynchronously.

    Writing the eight data structures and the two transaction applications
    as functors over this signature is what makes the paper's
    Symmetric-vs-AsymNVM comparisons run the same data-structure code on
    both architectures. *)

module type S = sig
  type t

  val clock : t -> Asym_sim.Clock.t

  (** {2 Naming} *)

  val register_ds : t -> string -> Types.handle
  (** Create or open the named structure's metadata (root, lock, sequence
      number) in the global naming space. *)

  val lookup_ds : t -> string -> Types.handle option

  (** {2 Data access (Table 1 basic APIs)} *)

  val read : ?hint:[ `Hot | `Cold ] -> t -> addr:Types.addr -> len:int -> bytes
  (** [rnvm_read]. [`Cold] bypasses the cache (the data structure expects
      no reuse, e.g. B+Tree leaves below the caching threshold). The
      result is a fresh buffer the caller owns: it aliases no cache page,
      pending log entry or media, so a structure may edit it in place and
      hand it to {!write}. *)

  val read_u64 : t -> ?hint:[ `Hot | `Cold ] -> Types.addr -> int64

  val write : t -> ds:Types.ds_id -> addr:Types.addr -> bytes -> unit
  (** [rnvm_write]/[rnvm_mem_log]: durable according to the store's mode —
      immediately (direct/naive), or when the operation's logs are
      persisted (logged mode). The store keeps no reference to the buffer:
      the bytes are copied before [write] returns (a logged front-end lays
      them into its memory-log frame, overlay and cache pages), so the
      caller may edit or reuse the buffer afterwards. *)

  val write_u64 : t -> ds:Types.ds_id -> Types.addr -> int64 -> unit

  val cas_u64 : t -> ds:Types.ds_id -> Types.addr -> expected:int64 -> desired:int64 -> int64
  (** Atomic 8-byte compare-and-swap (multi-version root switch, §6.2). *)

  (** {2 Memory management (Table 1)} *)

  val malloc : t -> int -> Types.addr
  val free : t -> Types.addr -> len:int -> unit

  (** {2 Operation framing (§4.3)} *)

  val op_begin : t -> ds:Types.ds_id -> optype:int -> params:bytes -> int64
  (** Start a data-structure operation: persists the operation log (when
      the configuration batches) and returns the operation number. *)

  val op_end : t -> ds:Types.ds_id -> unit
  (** Finish the operation: triggers [rnvm_tx_write] per batching policy. *)

  val flush : t -> unit
  (** Force [rnvm_tx_write] of all buffered memory logs. *)

  (** {2 Concurrency (Table 1)} *)

  val writer_lock : t -> Types.handle -> unit
  val writer_unlock : t -> Types.handle -> unit

  val read_section : ?retry_on:[ `Conflict | `Torn ] -> t -> Types.handle -> (unit -> 'a) -> 'a
  (** Run an optimistic read section under the write-preferred reader lock
      (Algorithm 2), retrying while the structure's sequence number was odd
      or changed across the section. [`Torn] (multi-version readers)
      retries only when the traversal itself tripped over reclaimed memory:
      any version a multi-version reader completes on is consistent by
      construction. *)

  val invalidate_cache : t -> unit
  (** Drop every cached page. Multi-version readers call this when they
      observe a root switch: within one version epoch nodes are immutable
      and reclaimed blocks are still inside their §6.2 grace period, so a
      cache never outlives its consistency this way. *)

  (** {2 Introspection} *)

  val cache_stats : t -> int * int
  (** (hits, misses) — used by the adaptive tree-level caching of §8.3. *)

  val batch_size : t -> int
  val read_retries : t -> int
end
