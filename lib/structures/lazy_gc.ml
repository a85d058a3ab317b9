(** Lazy NVM reclamation for the multi-version structures (§6.2).

    After a version switch the writer may not free the superseded nodes
    immediately: a reader that started before the switch may still be
    traversing them. Frees are deferred by [n + l] microseconds of virtual
    time (the paper fixes n/l at 4000/1000 µs after a tuning pre-run); any
    pending read is required to finish within n µs. *)

open Asym_core

let n_us = 4000
let l_us = 1000

module Make (S : Store.S) = struct
  type t = {
    s : S.t;
    q : (Asym_sim.Simtime.t * Types.addr * int) Queue.t;
  }

  let delay = Asym_sim.Simtime.us (n_us + l_us)
  let create s = { s; q = Queue.create () }

  let defer t addr ~len =
    Queue.push (Asym_sim.Clock.now (S.clock t.s) + delay, addr, len) t.q

  (* Release everything whose grace period expired. Called at operation
     boundaries by the multi-version structures. *)
  let pump t =
    let now = Asym_sim.Clock.now (S.clock t.s) in
    let continue_ = ref true in
    while !continue_ do
      match Queue.peek_opt t.q with
      | Some (due, addr, len) when due <= now ->
          ignore (Queue.pop t.q);
          S.free t.s addr ~len
      | _ -> continue_ := false
    done

  let drain t =
    Queue.iter (fun (_, addr, len) -> S.free t.s addr ~len) t.q;
    Queue.clear t.q

  let pending t = Queue.length t.q
end
