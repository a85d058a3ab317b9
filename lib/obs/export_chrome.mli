(** Chrome [trace_event] JSON export of the span ring.

    The document loads directly in Perfetto ({:https://ui.perfetto.dev})
    or [chrome://tracing]. Each distinct track (client clock, NIC
    timeline, back-end CPU, …) becomes one named thread lane; complete
    spans become ["ph": "X"] events and instants ["ph": "i"]. Timestamps
    are simulated nanoseconds rendered in the format's microsecond unit
    (fractional [ts] is allowed by the spec). *)

val to_string : unit -> string

val write_file : string -> unit
(** Write the trace document to a file. *)
