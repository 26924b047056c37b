(** Sparse little-endian byte-addressable memory with explicit mapping.

    The simulated machine's physical memory, backed by 64 KiB chunks that
    must be explicitly {!map}ped before use. Accessing an unmapped chunk
    raises {!Fault}, which the Alpha interpreter and the DBT runtime turn
    into a precise memory trap. *)

exception Fault of int
(** [Fault addr] is raised on any access to an unmapped address. *)

type t = {
  chunks : (int, Bytes.t) Hashtbl.t;
  mutable reads : int;  (** access accounting, used by tests *)
  mutable writes : int;
  mutable track_dirty : bool;  (** when on, stores record their chunk *)
  dirty : (int, unit) Hashtbl.t;
  mutable last_c : int;  (** last-chunk cache: chunk index, [-1] when cold *)
  mutable last_b : Bytes.t;  (** last-chunk cache: that chunk's bytes *)
}

val chunk_bits : int
(** log2 of the chunk (page) size; chunk index of address [a] is
    [a lsr chunk_bits]. *)

val create : unit -> t

val set_dirty_tracking : t -> bool -> unit
(** Enable or disable write-set tracking. Off by default: the hot
    simulation path then pays only a branch per store. The differential
    oracle enables it so per-boundary memory comparison can be confined
    to pages actually written. *)

val dirty_chunks : t -> int list
(** Chunk indices written since tracking was enabled (or last
    {!clear_dirty}), sorted ascending. *)

val clear_dirty : t -> unit

val chunk_bytes : t -> int -> Bytes.t option
(** Backing bytes of a chunk by index, if mapped. Treat as read-only. *)

val copy : t -> t
(** Deep copy (used by tests to snapshot a memory image). The copy starts
    with an empty last-chunk cache. *)

val map : t -> addr:int -> len:int -> unit
(** Map every chunk overlapping [addr, addr+len). Freshly mapped chunks are
    zero-filled; remapping is a no-op. *)

val is_mapped : t -> int -> bool

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit
(** Little-endian accessors of each width. Multi-byte accesses may straddle
    chunk boundaries. All raise {!Fault} on unmapped addresses. *)

val get_i64_into : t -> int -> Cell.t -> int -> unit
(** [get_i64_into m addr c off] loads 8 bytes into the register cell at
    byte offset [off] of [c] without boxing them. *)

val set_i64_from : t -> int -> Cell.t -> int -> unit
(** [set_i64_from m addr c off] stores the register cell at byte offset
    [off] of [c] as 8 bytes without boxing them. *)

val fill_zero : t -> addr:int -> len:int -> unit
(** Zero a mapped range (used when the VM flushes its dispatch table). *)

val blit_string : t -> addr:int -> string -> unit
(** Bulk write, used by the program loader. *)

val checksum : t -> addr:int -> len:int -> int64
(** FNV-1a hash over a range (unmapped bytes read as zero); used by tests
    to compare final memory images between execution modes. *)
