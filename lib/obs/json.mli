(** A minimal JSON tree: emit with escaping, parse with a recursive
    descent parser.

    The container image carries no JSON library (no [Yojson]), so the
    observability exporters carry their own. The parser exists mainly so
    tests can validate that the exporters emit well-formed documents, and
    so tooling can read traces back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input. Numbers with a fraction or
    exponent parse as [Float], others as [Int]. *)

(** {2 Accessors} (for tests and trace tooling) *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on missing key or
    non-object. *)

val to_list : t -> t list
(** The elements of a [List]; raises [Invalid_argument] otherwise. *)

val to_int : t -> int
(** The value of an [Int] (or integral [Float]); raises otherwise. *)

val to_float : t -> float
val to_str : t -> string
