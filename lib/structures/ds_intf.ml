(** Conventions shared by the persistent data structures (§8).

    Every structure is a functor over {!Asym_core.Store.S}, so the same
    implementation runs on the AsymNVM front-end and on the symmetric
    baseline. Keys are [int64]; values are byte strings.

    Operation-type codes are per-structure and live in each module; codes
    0 (initialization) and >= 250 (framework lock records) are reserved.

    Recovery: every structure exposes [replay] which re-executes one
    operation-log record (§7.2 Cases 2.b/2.c). Re-execution runs the
    normal operation path, producing fresh logs. *)

type key = int64

(** Creation-time options common to the structures. *)
type options = {
  shared : bool;
      (** multiple front-ends access the structure: lookups run inside an
          optimistic read section (§6.3, Algorithm 2) and multi-version
          readers drop their cache at every root switch. Whether writers
          flush before releasing the lock is the front-end's choice
          ([Client.config.flush_on_unlock]), not the structure's. *)
  use_lock : bool;
      (** take the exclusive writer lock around every mutation (§6.1) —
          the lock-based structures of the paper's evaluation *)
}

let default_options = { shared = false; use_lock = false }
let locked_options = { shared = false; use_lock = true }
let shared_options = { shared = true; use_lock = true }

(** The Table 1 protocol every structure runs its operations through: the
    writer lock (§6.1), op-log framing (§4.3), the optimistic read section
    (§6.3) and, for the multi-version structures, the root CAS with lazy
    reclamation (§6.2). The order of the store calls each piece issues is
    part of the contract: virtual time, verb counts and the crash-point
    census all depend on it. *)
module Frame (S : Asym_core.Store.S) = struct
  open Asym_core
  module Gc = Lazy_gc.Make (S)

  type t = {
    s : S.t;
    h : Types.handle;
    opts : options;
    mutable last_root : int64;  (* version epoch observed by this reader *)
    mutable after_op : (Types.addr * int) list;  (* frees due at op_end *)
  }

  let attach ~opts s ~name =
    { s; h = S.register_ds s name; opts; last_root = 0L; after_op = [] }

  let locked fr f =
    if fr.opts.use_lock then begin
      S.writer_lock fr.s fr.h;
      Fun.protect ~finally:(fun () -> S.writer_unlock fr.s fr.h) f
    end
    else f ()

  (* Free [addr] right after the current mutation's [op_end], still under
     the writer lock: for nodes the operation unlinked that must stay
     intact until it is logged complete. *)
  let free_after_op fr addr ~len = fr.after_op <- (addr, len) :: fr.after_op

  (* One logged mutation: [body] runs between [op_begin] and [op_end] and
     receives the structure id its writes are tagged with. *)
  let mutate fr ~optype ~params body =
    locked fr (fun () ->
        let ds = fr.h.Types.id in
        fr.after_op <- [];
        ignore (S.op_begin fr.s ~ds ~optype ~params);
        let r = body ds in
        S.op_end fr.s ~ds;
        List.iter (fun (addr, len) -> S.free fr.s addr ~len) (List.rev fr.after_op);
        r)

  (* A lookup: an optimistic read section when the structure is shared. *)
  let read ?retry_on fr f =
    if fr.opts.shared then S.read_section ?retry_on fr.s fr.h f else f ()

  (* Reading the root defines the version epoch; on a switch the cached
     pages of the previous epoch are dropped (blocks reclaimed from older
     epochs are still inside the GC grace period, so within one epoch the
     cache can never serve reused bytes). *)
  let current_root fr =
    let root = S.read_u64 ~hint:`Cold fr.s fr.h.Types.root in
    if fr.opts.shared && root <> fr.last_root then begin
      S.invalidate_cache fr.s;
      fr.last_root <- root
    end;
    root

  (* One multi-version mutation attempt: read the root, build the new
     version, CAS the root. SWMR means the CAS only fails if another
     front-end raced us; then we roll the fresh allocations back and retry
     against the new version. [build] returns [None] when there is nothing
     to change (e.g. deleting an absent key). *)
  let rec with_root_swap fr gc ~ds ~build ~attempt =
    if attempt > 16 then
      Fmt.failwith "%s: root CAS kept failing (more than one writer?)" fr.h.Types.ds_name;
    let root_addr = fr.h.Types.root in
    let old_root = S.read_u64 ~hint:`Cold fr.s root_addr in
    let created = ref [] in
    let obsolete = ref [] in
    match build ~ds ~created ~obsolete (Int64.to_int old_root) with
    | None ->
        List.iter (fun (addr, len) -> S.free fr.s addr ~len) !created;
        false
    | Some new_root ->
        let desired = Int64.of_int new_root in
        if S.cas_u64 fr.s ~ds root_addr ~expected:old_root ~desired = old_root then begin
          List.iter (fun (addr, len) -> Gc.defer gc addr ~len) !obsolete;
          true
        end
        else begin
          List.iter (fun (addr, len) -> S.free fr.s addr ~len) !created;
          with_root_swap fr gc ~ds ~build ~attempt:(attempt + 1)
        end

  (* A logged multi-version mutation: [build] path-copies into fresh
     allocations (recorded in [created]) and lists the superseded ones in
     [obsolete]; the root CAS publishes the new version, then expired
     grace periods are reclaimed. Returns whether a version was
     published. *)
  let mutate_version fr gc ~optype ~params build =
    let ds = fr.h.Types.id in
    ignore (S.op_begin fr.s ~ds ~optype ~params);
    let changed = with_root_swap fr gc ~ds ~build ~attempt:0 in
    S.op_end fr.s ~ds;
    Gc.pump gc;
    changed
end
