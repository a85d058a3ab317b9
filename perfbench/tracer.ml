(* Host-time spans around every call the benchmark makes into a layer.

   The benchmark opens an [Op] span around each structure operation; the
   [Timed] store opens one around each [Store.S] call the structure makes
   into the client, and a [Body] span around the structure code a read
   section runs. A span's self time is its duration minus that of its
   direct children, summed per kind as spans close, so for every op the
   structure's self time ([Op] + [Body]) plus the client kinds add up to
   the op's duration.

   Under [Sched] the front-ends interleave on one host thread. Each
   front-end ([fe]) therefore counts the host time it spent suspended
   ({!run_body}), and a span's duration excludes its own front-end's
   suspensions. Closed spans also go to an in-memory log, written out as
   a Chrome trace when the run ends. *)

open Asym_core

type kind = Op | Body | Read | Write | Op_begin | Op_end | Lock | Read_section | Alloc | Other

let all_kinds = [ Op; Body; Read; Write; Op_begin; Op_end; Lock; Read_section; Alloc; Other ]

let index = function
  | Op -> 0
  | Body -> 1
  | Read -> 2
  | Write -> 3
  | Op_begin -> 4
  | Op_end -> 5
  | Lock -> 6
  | Read_section -> 7
  | Alloc -> 8
  | Other -> 9

let kind_name = function
  | Op -> "structures.op"
  | Body -> "structures.read_section_body"
  | Read -> "client.read"
  | Write -> "client.write"
  | Op_begin -> "client.op_begin"
  | Op_end -> "client.op_end"
  | Lock -> "client.lock"
  | Read_section -> "client.read_section"
  | Alloc -> "client.alloc"
  | Other -> "client.other"

let n_kinds = List.length all_kinds
let kind_names = Array.of_list (List.map kind_name all_kinds)

(* One simulated front-end's open-span stack and suspension counter. *)
type fe = {
  fid : int;
  clock : Asym_sim.Clock.t;
  mutable depth : int;
  kinds : int array;  (* {!index} of each open span *)
  sid : int array;  (* log index of each open span, -1 past the log's cap *)
  t0 : int array;
  p0 : int array;  (* [paused] when the span opened *)
  child : int array;  (* summed durations of closed direct children *)
  mutable paused : int;  (* host ns spent suspended by the scheduler *)
  mutable running : int;  (* host ns {!run_body} ran, suspensions excluded *)
  mutable op : int;  (* id of the op the next spans belong to *)
}

let max_depth = 32

let fe ~fid clock =
  let a () = Array.make max_depth 0 in
  { fid; clock; depth = 0; kinds = a (); sid = a (); t0 = a (); p0 = a (); child = a ();
    paused = 0; running = 0; op = -1 }

(* -- accumulators and the span log ----------------------------------------- *)

let self_ns = Array.make n_kinds 0
let calls = Array.make n_kinds 0
let flush_ns = ref 0
let op_ns = ref 0

(* Log fields per span: parent, op, front-end, kind, host start (ns since
   {!reset}), host duration, virtual start, virtual duration, flushed. The
   log keeps the first [log_cap] spans after {!reset}; later spans are
   still summed. It is allocated by {!calibrate}, so untraced runs do not
   carry it. *)
let stride = 9
let log_cap = 262_144
let log = ref [||]
let spans = ref 0
let epoch = ref 0

let reset () =
  Array.fill self_ns 0 n_kinds 0;
  Array.fill calls 0 n_kinds 0;
  flush_ns := 0;
  op_ns := 0;
  spans := 0;
  epoch := Host.now_ns ()

let enter fe kind =
  let now = Host.now_ns () in
  let d = fe.depth in
  let l = !log in
  let i = if (!spans + 1) * stride <= Array.length l then !spans else -1 in
  if i >= 0 then begin
    let b = i * stride in
    l.(b) <- (if d = 0 then -1 else fe.sid.(d - 1));
    l.(b + 1) <- fe.op;
    l.(b + 2) <- fe.fid;
    l.(b + 3) <- index kind;
    l.(b + 4) <- now - !epoch;
    l.(b + 6) <- Asym_sim.Clock.now fe.clock
  end;
  incr spans;
  fe.kinds.(d) <- index kind;
  fe.sid.(d) <- i;
  fe.t0.(d) <- now;
  fe.p0.(d) <- fe.paused;
  fe.child.(d) <- 0;
  fe.depth <- d + 1

let leave ?(flushed = false) fe =
  let now = Host.now_ns () in
  let d = fe.depth - 1 in
  fe.depth <- d;
  let dur = now - fe.t0.(d) - (fe.paused - fe.p0.(d)) in
  if d > 0 then fe.child.(d - 1) <- fe.child.(d - 1) + dur;
  let k = fe.kinds.(d) in
  self_ns.(k) <- self_ns.(k) + dur - fe.child.(d);
  calls.(k) <- calls.(k) + 1;
  if k = 0 then op_ns := !op_ns + dur;
  if flushed then flush_ns := !flush_ns + dur;
  if fe.sid.(d) >= 0 then begin
    let l = !log and b = fe.sid.(d) * stride in
    l.(b + 5) <- dur;
    l.(b + 7) <- Asym_sim.Clock.now fe.clock - l.(b + 6);
    l.(b + 8) <- Bool.to_int flushed
  end

let span fe kind f =
  enter fe kind;
  match f () with
  | v ->
      leave fe;
      v
  | exception e ->
      leave fe;
      raise e

(* Run a front-end's body under the scheduler, counting the host time it
   spends suspended: each [Clock.Yield] is re-performed to [Sched]'s own
   handler, and the gap until it resumes us is a suspension. *)
let run_body fe body () =
  let start = Host.now_ns () and paused0 = fe.paused in
  Effect.Deep.match_with body ()
    {
      retc =
        (fun () -> fe.running <- fe.running + (Host.now_ns () - start) - (fe.paused - paused0));
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Asym_sim.Clock.Yield _ ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let t = Host.now_ns () in
                  Effect.perform e;
                  fe.paused <- fe.paused + (Host.now_ns () - t);
                  Effect.Deep.continue k ())
          | _ -> None);
    }

(* Host cost the wrapper adds around one traced call: [parent_ns] lands
   in the caller's self time, [child_ns] inside the call's own span.
   Measured on empty calls through the same path as {!Timed}. *)
type overhead = { parent_ns : float; child_ns : float }

let calibrate () =
  if Array.length !log = 0 then log := Array.make (stride * log_cap) 0;
  let f = fe ~fid:(-1) (Asym_sim.Clock.create ~name:"calibrate" ()) in
  let n = 100_000 in
  (* The first pass warms the log's memory; the second is measured. *)
  for _ = 1 to 2 do
    reset ();
    enter f Op;
    for _ = 1 to n do
      span f Other ignore
    done;
    leave f
  done;
  let per k = float_of_int self_ns.(index k) /. float_of_int n in
  let o = { parent_ns = per Op; child_ns = per Other } in
  reset ();
  o

(* -- the timing wrapper -------------------------------------------------------- *)

(** A [Store.S] over {!Client} that records a span around every call. *)
module Timed = struct
  type t = { c : Client.t; fe : fe }

  let make fe c = { c; fe }

  (* Calls that may run [rnvm_tx_write]: those that did are also summed
     into the flush view. *)
  let flushing t kind f =
    let before = Client.flushes t.c in
    enter t.fe kind;
    match f () with
    | v ->
        leave ~flushed:(Client.flushes t.c > before) t.fe;
        v
    | exception e ->
        leave ~flushed:(Client.flushes t.c > before) t.fe;
        raise e

  let clock t = Client.clock t.c
  let register_ds t name = span t.fe Other (fun () -> Client.register_ds t.c name)
  let lookup_ds t name = span t.fe Other (fun () -> Client.lookup_ds t.c name)
  let read ?hint t ~addr ~len = span t.fe Read (fun () -> Client.read ?hint t.c ~addr ~len)
  let read_u64 t ?hint addr = span t.fe Read (fun () -> Client.read_u64 t.c ?hint addr)
  let write t ~ds ~addr v = span t.fe Write (fun () -> Client.write t.c ~ds ~addr v)
  let write_u64 t ~ds addr v = span t.fe Write (fun () -> Client.write_u64 t.c ~ds addr v)

  let cas_u64 t ~ds addr ~expected ~desired =
    span t.fe Write (fun () -> Client.cas_u64 t.c ~ds addr ~expected ~desired)

  let malloc t n = span t.fe Alloc (fun () -> Client.malloc t.c n)
  let free t addr ~len = span t.fe Alloc (fun () -> Client.free t.c addr ~len)

  let op_begin t ~ds ~optype ~params =
    span t.fe Op_begin (fun () -> Client.op_begin t.c ~ds ~optype ~params)

  let op_end t ~ds = flushing t Op_end (fun () -> Client.op_end t.c ~ds)
  let pending_ops t ~ds = span t.fe Other (fun () -> Client.pending_ops t.c ~ds)
  let flush t = flushing t Other (fun () -> Client.flush t.c)
  let writer_lock t h = span t.fe Lock (fun () -> Client.writer_lock t.c h)
  let writer_unlock t h = flushing t Lock (fun () -> Client.writer_unlock t.c h)

  let read_section ?retry_on t h f =
    span t.fe Read_section (fun () ->
        Client.read_section ?retry_on t.c h (fun () -> span t.fe Body f))

  let invalidate_cache t = span t.fe Other (fun () -> Client.invalidate_cache t.c)
  let cache_stats t = span t.fe Other (fun () -> Client.cache_stats t.c)
  let batch_size t = span t.fe Other (fun () -> Client.batch_size t.c)
  let read_retries t = span t.fe Other (fun () -> Client.read_retries t.c)
end

(* -- writing the log out ---------------------------------------------------------- *)

(* The first [limit] logged spans as Chrome trace events (load in Perfetto).
   [dur] excludes the front-end's suspensions, so under the scheduler a
   span can end after [ts + dur]. *)
let write_chrome path ~limit =
  let oc = open_out path in
  let l = !log and n = min limit (min log_cap !spans) in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to n - 1 do
    let b = i * stride in
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d,\"vstart_ns\":%d,\"vdur_ns\":%d,\"flushed\":%d}}\n"
      (if i = 0 then "" else ",")
      kind_names.(l.(b + 3))
      l.(b + 2)
      (float_of_int l.(b + 4) /. 1e3)
      (float_of_int l.(b + 5) /. 1e3)
      i l.(b) l.(b + 1) l.(b + 6) l.(b + 7) l.(b + 8)
  done;
  Printf.fprintf oc "],\"otherData\":{\"spans_recorded\":%d,\"spans_written\":%d}}\n" !spans n;
  close_out oc
