(** Sim-time observability: a metrics registry, a span tracer and
    exporters, shared by every layer of the stack.

    The whole subsystem hangs off one global switch: {!set_enabled}. It
    is off by default and every recording entry point starts with the
    same branch, so instrumented hot paths cost a few instructions when
    tracing is not requested (see DESIGN.md, "Observability"). *)

module Json = Json
module Registry = Registry
module Attr = Attr
module Span = Span
module Export_chrome = Export_chrome

let set_enabled = Gate.set_enabled
let enabled = Gate.enabled

let reset () =
  Registry.reset ();
  Attr.reset ();
  Span.reset ()
