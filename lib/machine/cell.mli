(** Unboxed 64-bit register cells.

    A register file is a [Bytes.t] of 8-byte cells, each addressed by its
    byte offset ([index lsl 3]). An [int64] read from a cell and fed straight
    into [Int64] arithmetic and back into a cell stays in a machine register:
    unlike a write into an [int64 array], it is never boxed, so register
    traffic allocates nothing. An [int64] passed to, or returned from, a
    function that is not inlined is still boxed; code that must not allocate
    moves values between cells, not through [int64] arguments.

    {!get} and {!set} are declared [external] so that they stay compiler
    primitives at every use, even when this module's implementation is
    hidden by [-opaque]. They perform no bounds check: callers validate an
    offset once, when they resolve a register to its cell, and then use it
    unchecked. Cells are in host byte order. *)

type t = Bytes.t

external get : t -> int -> int64 = "%caml_bytes_get64u"
external set : t -> int -> int64 -> unit = "%caml_bytes_set64u"

val create : int -> t
(** [create n] is a file of [n] cells, all zero. *)

val const : int64 -> t
(** A one-cell file holding the value at offset 0, for operands that are
    constants; it is never written. *)
