(** Little-endian binary encoding of data-structure nodes, log entries and
    metadata records stored in the simulated NVM.

    Two complementary styles are provided:
    - an {!Enc}oder that appends to a growable buffer (for building log
      entries and freshly allocated nodes), and
    - a {!Dec}oder cursor over immutable bytes (for parsing what an
      [rnvm_read] returned),
    plus direct positional accessors used when patching single fields. *)

module Enc : sig
  type t

  val create : ?capacity:int -> unit -> t

  val into : bytes -> pos:int -> t
  (** An encoder that writes into the given buffer from [pos] on, in
      place; writing past its end raises [Invalid_argument]. [length] and
      [to_bytes] then count from the buffer's start. *)

  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u32i : t -> int -> unit
  val u64 : t -> int64 -> unit
  val u64i : t -> int -> unit
  val bytes : t -> bytes -> unit
  val string : t -> string -> unit
  (** Length-prefixed (u32) string. *)

  val to_bytes : t -> bytes
end

module Dec : sig
  type t

  val of_bytes : ?pos:int -> ?lim:int -> bytes -> t
  (** A cursor from [pos] that treats [lim] (default and at most the
      buffer's length) as the end of the bytes. *)

  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val u32i : t -> int
  val u64 : t -> int64
  val u64i : t -> int
  val bytes : t -> int -> bytes
  val string : t -> string
  (** Reads a u32 length prefix then that many bytes. *)

  val skip : t -> int -> unit
end
