(** CRC-32 (IEEE 802.3 polynomial) checksums.

    AsymNVM appends a checksum to every transaction log and operation log so
    that a torn RDMA write into NVM is detected after a crash (paper §4.2).
    This is the integrity primitive used by the log areas and recovery. *)

val digest : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [digest ?init b ~pos ~len] checksums the given slice. [init] allows
    incremental computation: feed the previous digest back in. Slicing-by-8:
    one 64-bit load and eight table lookups per 8 bytes, then a bytewise
    tail. Raises [Invalid_argument] when the slice is not inside [b]. *)

val digest_bytes : bytes -> int32
(** Checksum of a whole buffer. *)

val digest_string : string -> int32
