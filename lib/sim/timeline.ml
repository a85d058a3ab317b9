(* Busy intervals are kept sorted so that requests arriving out of
   virtual-time order backfill idle gaps instead of queueing behind
   bookings made for later times. The co-simulation scheduler resumes the
   globally-earliest clock, but some bookings are still made ahead of the
   caller's clock: a back-end replay books its CPU slot behind queued
   work, and mirror forwarding books NIC slots at the replay's end.
   Clocks advanced outside the scheduler arrive out of order too. Old
   intervals are pruned behind a horizon; requests older than the horizon
   are conservatively clamped to it. *)

type t = {
  name : string;
  mutable starts : int array;  (* sorted busy intervals *)
  mutable stops : int array;
  mutable count : int;
  mutable horizon : Simtime.t;  (* nothing may be scheduled before this *)
  mutable free : Simtime.t;  (* end of the latest booked slot *)
  mutable busy : Simtime.t;
  mutable queued : Simtime.t;  (* total wait between request and grant *)
}

let initial_capacity = 256
let max_intervals = 8192

let create ?(name = "resource") () =
  {
    name;
    starts = Array.make initial_capacity 0;
    stops = Array.make initial_capacity 0;
    count = 0;
    horizon = 0;
    free = 0;
    busy = 0;
    queued = 0;
  }

let name t = t.name

let ensure_capacity t =
  if t.count = Array.length t.starts then begin
    let n = t.count * 2 in
    let s = Array.make n 0 and e = Array.make n 0 in
    Array.blit t.starts 0 s 0 t.count;
    Array.blit t.stops 0 e 0 t.count;
    t.starts <- s;
    t.stops <- e
  end

let prune t =
  if t.count >= max_intervals then begin
    let drop = t.count / 2 in
    t.horizon <- Simtime.max t.horizon t.stops.(drop - 1);
    Array.blit t.starts drop t.starts 0 (t.count - drop);
    Array.blit t.stops drop t.stops 0 (t.count - drop);
    t.count <- t.count - drop
  end

(* Index of the first interval with stop > x (binary search). *)
let first_after t x =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.stops.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The earliest gap of length [dur] at or after [candidate], searching
   from interval [i] on. *)
let rec fit t ~dur i candidate =
  if i >= t.count then candidate
  else if candidate + dur <= t.starts.(i) then candidate
  else fit t ~dur (i + 1) (Simtime.max candidate t.stops.(i))

let insert_at t i start stop =
  (* Merge with neighbours when touching, else insert. *)
  let touches_prev = i > 0 && t.stops.(i - 1) = start in
  let touches_next = i < t.count && t.starts.(i) = stop in
  if touches_prev && touches_next then begin
    t.stops.(i - 1) <- t.stops.(i);
    Array.blit t.starts (i + 1) t.starts i (t.count - i - 1);
    Array.blit t.stops (i + 1) t.stops i (t.count - i - 1);
    t.count <- t.count - 1
  end
  else if touches_prev then t.stops.(i - 1) <- stop
  else if touches_next then t.starts.(i) <- start
  else begin
    ensure_capacity t;
    Array.blit t.starts i t.starts (i + 1) (t.count - i);
    Array.blit t.stops i t.stops (i + 1) (t.count - i);
    t.starts.(i) <- start;
    t.stops.(i) <- stop;
    t.count <- t.count + 1
  end

(* Split the grant into queueing delay (request -> start) and service
   time (the slot itself), per resource, in the obs registry. The
   [enabled] pre-check keeps the disabled path allocation-free. *)
let book t ~wait ~service =
  t.queued <- t.queued + wait;
  if Asym_obs.enabled () then begin
    let labels = [ ("resource", t.name) ] in
    if wait > 0 then Asym_obs.Registry.add ~labels "timeline.queue_ns" wait;
    if service > 0 then Asym_obs.Registry.add ~labels "timeline.service_ns" service
  end

let acquire t ~at ~dur =
  assert (dur >= 0);
  let requested = at in
  let at = Simtime.max at t.horizon in
  if dur = 0 then at
  else begin
    let last = t.count - 1 in
    let start =
      if last < 0 || at >= t.stops.(last) then begin
        (* At or after every booking: the request starts at once and goes
           at the end, where the general search below would put it too. *)
        insert_at t t.count at (at + dur);
        at
      end
      else begin
        let start = fit t ~dur (first_after t at) at in
        insert_at t (first_after t start) start (start + dur);
        start
      end
    in
    prune t;
    t.busy <- t.busy + dur;
    if start + dur > t.free then t.free <- start + dur;
    book t ~wait:(start - requested) ~service:dur;
    start
  end

let free_at t = t.free
let busy_total t = t.busy
let queued_total t = t.queued
