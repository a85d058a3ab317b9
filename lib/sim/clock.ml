type t = {
  name : string;
  mutable now : Simtime.t;
  mutable busy : Simtime.t;
  (* The latest time this clock may reach without suspending. Sched.run
     sets it to the earliest other task's time while this clock's owner
     runs under the effect handler (min_int while the owner is suspended),
     and max_int outside a co-simulation, so clocks advanced by
     single-client runs and setup code never raise Effect.Unhandled. *)
  mutable limit : Simtime.t;
  attr : Asym_obs.Attr.local;
}

(* Performed when a cooperating clock moves past its limit — the
   suspension point that makes clients resumable at every virtual-time
   advance that lets another client go first. Sched runs each client
   under a handler for this effect and always resumes the
   globally-earliest clock. *)
type _ Effect.t += Yield : t -> unit Effect.t

let create ?(name = "node") () =
  { name; now = 0; busy = 0; limit = max_int; attr = Asym_obs.Attr.local_create () }

let name t = t.name
let now t = t.now
let attr t = t.attr
let set_limit t l = t.limit <- l
let yield t = if t.now > t.limit then Effect.perform (Yield t)

(* Every forward movement of [now] is charged to an attribution cause
   here, at the single choke point — so summing the per-cause sink always
   reproduces elapsed virtual time exactly (the conservation property).
   The same choke point is where a cooperating client suspends: time
   lands on the clock first, then the scheduler takes over, so the
   side effects that follow the advance (a verb's media write, a lock
   CAS decision) execute at the verb's completion time in global
   virtual-time order. *)
let charge ?(cause = Asym_obs.Attr.Local_compute) t d =
  assert (d >= 0);
  Asym_obs.Attr.local_charge t.attr cause d;
  t.now <- t.now + d;
  t.busy <- t.busy + d

let advance ?cause t d =
  charge ?cause t d;
  yield t

let wait_until ?(cause = Asym_obs.Attr.Local_compute) t at =
  if at > t.now then begin
    Asym_obs.Attr.local_charge t.attr cause (at - t.now);
    t.now <- at;
    yield t
  end

let busy t = t.busy

let utilization t ~since ~busy_since =
  let elapsed = t.now - since in
  if elapsed <= 0 then 0.0 else float_of_int (t.busy - busy_since) /. float_of_int elapsed
