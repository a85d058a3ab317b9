(** Aggregations over the span ring and the registry, for plain-text
    top-N reporting (the harness renders these through
    [Asym_harness.Report]). *)

type span_row = {
  sname : string;
  count : int;
  total_ns : int;
  mean_ns : float;
  max_ns : int;
}

val spans : ?top:int -> unit -> span_row list
(** Complete spans grouped by name, sorted by total simulated time,
    largest first; [top] truncates (default 15). *)

type counter_row = { cname : string; value : int }
(** [cname] is the series name with its labels rendered inline, e.g.
    ["rdma.verbs{op=write}"]. *)

val counters : ?top:int -> unit -> counter_row list
(** Counters sorted by value, largest first. *)

val format_ns : int -> string
(** Human-scaled simulated duration ("1.234ms"). *)
