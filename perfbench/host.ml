(* Host-side measurements: what the OCaml simulator itself costs to run.
   A monotonic nanosecond clock, the process's CPU time, allocation and
   collection counts from the GC, the user/sys split of CPU time, and peak
   resident memory. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Nanoseconds of CPU time (user + system) this process has used, from
   getrusage through [Sys.time]. Unlike wall time it excludes time the
   process was not running. It advances by microseconds, where
   /proc/self/schedstat and [Unix.times] advance by scheduler ticks of
   several milliseconds. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

let cpu_secs_since t0 = float_of_int (cpu_ns () - t0) /. 1e9

type counters = { words : float; majors : int; user_s : float; sys_s : float }

let counters () =
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  {
    words = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words;
    majors = g.Gc.major_collections;
    user_s = t.Unix.tms_utime;
    sys_s = t.Unix.tms_stime;
  }

let diff a b =
  {
    words = b.words -. a.words;
    majors = b.majors - a.majors;
    user_s = b.user_s -. a.user_s;
    sys_s = b.sys_s -. a.sys_s;
  }

(* VmHWM: the high-water mark of the process's resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
