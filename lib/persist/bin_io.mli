(** Dependency-free binary serialization primitives for the snapshot
    format: little-endian fixed-width integers, length-prefixed strings,
    and a table-driven CRC-32 over the encoded payload.

    The reader raises {!Error} with the byte position on any malformed
    input — a truncated or corrupted snapshot must fail loudly, never
    deliver garbage into the translation cache. *)

exception Error of string

(** {2 Writer} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
(** 32-bit unsigned little-endian; [Invalid_argument] outside [0, 2^32). *)

val i64 : writer -> int64 -> unit
val int : writer -> int -> unit
(** Any OCaml int, encoded as its 64-bit two's-complement image. *)

val bool : writer -> bool -> unit
val str : writer -> string -> unit
(** [u32] length prefix followed by the raw bytes. *)

val raw : writer -> string -> unit
(** The bytes with no length prefix (container magic and payload). *)

(** {2 Reader} *)

type reader

val reader : string -> reader
val pos : reader -> int
val eof : reader -> bool

val remaining : reader -> int
(** Bytes left to read. *)

val read_u8 : reader -> int
val read_u32 : reader -> int
val read_i64 : reader -> int64
val read_int : reader -> int
val read_bool : reader -> bool
val read_str : reader -> string
val read_bytes : reader -> int -> string

val error : reader -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with the current position prepended. *)

(** {2 Checksum} *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3 polynomial) of the whole string, in [0, 2^32). *)
