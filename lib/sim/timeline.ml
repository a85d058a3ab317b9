(* Busy intervals are kept sorted so that requests arriving out of
   virtual-time order backfill idle gaps instead of queueing behind
   bookings made for later times. The co-simulation scheduler resumes the
   globally-earliest clock, but some bookings are still made ahead of the
   caller's clock: a back-end replay books its CPU slot behind queued
   work, and mirror forwarding books NIC slots at the replay's end.
   Clocks advanced outside the scheduler arrive out of order too. Old
   intervals are pruned behind a horizon; requests older than the horizon
   are conservatively clamped to it.

   The two sorted arrays are gap buffers: their free slots sit together
   just before interval [gap], the last insertion point. An insert or a
   removal moves the gap to its index, shifting only the intervals in
   between, so bookings that sweep forward behind the newest one (a
   front-end warming behind the others) shift a few entries each instead
   of every later interval, and appends keep the gap at the end. *)

type t = {
  name : string;
  mutable starts : int array;  (* sorted busy intervals, around a gap *)
  mutable stops : int array;
  mutable count : int;
  mutable gap : int;  (* the free slots sit just before interval [gap] *)
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
    gap = 0;
    horizon = 0;
    free = 0;
    busy = 0;
    queued = 0;
  }

let name t = t.name

(* The array slot of interval [i]: intervals from [gap] on sit past the
   free slots. *)
let slot t i = if i < t.gap then i else i + Array.length t.starts - t.count
let start_of t i = t.starts.(slot t i)
let stop_of t i = t.stops.(slot t i)

(* Move the free slots to just before interval [i], shifting only the
   intervals between the old place and the new. *)
let move_gap t i =
  let free = Array.length t.starts - t.count in
  if i < t.gap then begin
    Array.blit t.starts i t.starts (i + free) (t.gap - i);
    Array.blit t.stops i t.stops (i + free) (t.gap - i)
  end
  else if i > t.gap then begin
    Array.blit t.starts (t.gap + free) t.starts t.gap (i - t.gap);
    Array.blit t.stops (t.gap + free) t.stops t.gap (i - t.gap)
  end;
  t.gap <- i

let ensure_capacity t =
  let cap = Array.length t.starts in
  if t.count = cap then begin
    let n = cap * 2 and tail = cap - t.gap in
    let grow a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 t.gap;
      Array.blit a t.gap b (n - tail) tail;
      b
    in
    t.starts <- grow t.starts;
    t.stops <- grow t.stops
  end

(* Drop the older half. A prune follows the insert that fills the arrays
   (their capacity doubles from 256 up to [max_intervals]), so the gap is
   empty and the intervals sit in order; the kept half moves down and the
   free slots end up after it. *)
let prune t =
  if t.count >= max_intervals then begin
    assert (t.count = Array.length t.starts);
    let drop = t.count / 2 in
    t.horizon <- Simtime.max t.horizon t.stops.(drop - 1);
    let kept = t.count - drop in
    Array.blit t.starts drop t.starts 0 kept;
    Array.blit t.stops drop t.stops 0 kept;
    t.count <- kept;
    t.gap <- kept
  end

(* The first slot in [lo, hi) whose stop is > x, or [hi]. *)
let rec bisect stops x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if stops.(mid) <= x then bisect stops x (mid + 1) hi else bisect stops x lo mid

(* Galloping searches: steps of 1, 2, 4, ... away from a known bound, then
   a bisection of the last step. [gallop_down] knows stops.(hi) > x;
   [gallop_up] knows stops.(lo - 1) <= x and searches below [n]. *)
let rec gallop_down stops x hi step =
  let p = hi - step in
  if p < 0 then bisect stops x 0 hi
  else if stops.(p) > x then gallop_down stops x p (2 * step)
  else bisect stops x (p + 1) hi

let rec gallop_up stops x lo n step =
  let p = lo - 1 + step in
  if p >= n then bisect stops x lo n
  else if stops.(p) <= x then gallop_up stops x (p + 1) n (2 * step)
  else bisect stops x lo p

(* Index of the first interval with stop > x, searched outward from the
   gap, so a booking near the last one costs O(log distance). *)
let first_after t x =
  let stops = t.stops and g = t.gap in
  let n = Array.length stops in
  let off = n - t.count in
  if g > 0 && stops.(g - 1) > x then gallop_down stops x (g - 1) 1
  else if g < t.count && stops.(g + off) <= x then gallop_up stops x (g + off + 1) n 1 - off
  else g

(* The earliest gap of length [dur] at or after [candidate], searching
   from interval [i] on. *)
let rec fit t ~dur i candidate =
  if i >= t.count then candidate
  else if candidate + dur <= start_of t i then candidate
  else fit t ~dur (i + 1) (Simtime.max candidate (stop_of t i))

let insert_at t i start stop =
  (* Merge with neighbours when touching, else insert. *)
  let touches_prev = i > 0 && stop_of t (i - 1) = start in
  let touches_next = i < t.count && start_of t i = stop in
  if touches_prev && touches_next then begin
    (* interval [i - 1] absorbs [i], whose slot joins the free ones *)
    move_gap t i;
    t.stops.(i - 1) <- stop_of t i;
    t.count <- t.count - 1
  end
  else if touches_prev then t.stops.(slot t (i - 1)) <- stop
  else if touches_next then t.starts.(slot t i) <- start
  else begin
    ensure_capacity t;
    move_gap t i;
    t.starts.(i) <- start;
    t.stops.(i) <- stop;
    t.gap <- i + 1;
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
    let start =
      if t.count = 0 || at >= stop_of t (t.count - 1) then begin
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
