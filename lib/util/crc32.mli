(** CRC-32 (IEEE 802.3 polynomial) checksums.

    AsymNVM appends a checksum to every transaction log and operation log so
    that a torn RDMA write into NVM is detected after a crash (paper §4.2).
    This is the integrity primitive used by the log areas and recovery.

    Two kernels compute the one function. The portable one is slicing-by-8
    in OCaml: one 64-bit load and eight table lookups per 8 bytes, then a
    bytewise tail. On x86-64 CPUs with PCLMULQDQ and SSE4.1 (probed once,
    when the module initializes), a C kernel folds 64 bytes per step by
    carry-less multiplication (Gopal et al., Intel 2009). Both reduce the
    message modulo the same polynomial and neither reorders or pads it, so
    they return the same value bit for bit: the choice changes no stored
    frame, test vector or simulated number, and no option selects it. *)

val digest : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [digest ?init b ~pos ~len] checksums the given slice. [init] allows
    incremental computation: feed the previous digest back in. A slice of
    64 bytes or more goes through the carry-less multiply kernel when the
    CPU has it, 16 bytes at a time, and its last [len mod 16] bytes
    through slicing-by-8; shorter slices (a 30-byte lock record) and other
    CPUs use slicing-by-8 alone. Raises [Invalid_argument] when the slice
    is not inside [b]. *)

val table_digest : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** {!digest} through slicing-by-8 alone, on every CPU: the portable
    kernel the tests compare the carry-less multiply kernel against. *)

val kernel : string
(** The kernel {!digest} uses for slices of 64 bytes or more on this CPU:
    ["clmul"] or ["table"]. *)

val digest_bytes : bytes -> int32
(** Checksum of a whole buffer. *)

val digest_string : string -> int32
