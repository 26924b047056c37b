(* Sparse little-endian byte-addressable memory with explicit mapping.

   The simulated machine's physical memory. Backed by 64 KiB chunks that must
   be explicitly [map]ped before use; an access to an unmapped chunk raises
   [Fault], which the Alpha interpreter and the DBT runtime turn into a
   precise memory trap. This gives us a realistic "unmapped page" trap source
   for the precise-trap experiments. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

exception Fault of int
(** [Fault addr] is raised on any access to an unmapped address. *)

type t = {
  chunks : (int, Bytes.t) Hashtbl.t;
  mutable reads : int;  (* accounting, used by tests *)
  mutable writes : int;
  (* Optional write-set tracking: when [track_dirty] is on, every store
     records its chunk index in [dirty]. Off by default so the hot
     simulation path pays only a branch; the differential oracle turns it
     on to confine per-boundary memory comparison to written pages. *)
  mutable track_dirty : bool;
  dirty : (int, unit) Hashtbl.t;
  (* Last-chunk cache: the most recently accessed chunk index and its
     bytes, checked before the table. Chunks are only ever added, never
     replaced or removed, so a cached pair can never go stale. *)
  mutable last_c : int;
  mutable last_b : Bytes.t;
}

let no_chunk = -1

let create () =
  {
    chunks = Hashtbl.create 64;
    reads = 0;
    writes = 0;
    track_dirty = false;
    dirty = Hashtbl.create 16;
    last_c = no_chunk;
    last_b = Bytes.empty;
  }

let copy t =
  let chunks = Hashtbl.create (Hashtbl.length t.chunks) in
  Hashtbl.iter (fun k v -> Hashtbl.replace chunks k (Bytes.copy v)) t.chunks;
  {
    chunks;
    reads = t.reads;
    writes = t.writes;
    track_dirty = t.track_dirty;
    dirty = Hashtbl.copy t.dirty;
    (* a copy starts cold: the original's cached bytes are not the copy's *)
    last_c = no_chunk;
    last_b = Bytes.empty;
  }

let set_dirty_tracking t on = t.track_dirty <- on
let clear_dirty t = Hashtbl.reset t.dirty

let dirty_chunks t =
  Hashtbl.fold (fun c () acc -> c :: acc) t.dirty [] |> List.sort compare

let chunk_bytes t c = Hashtbl.find_opt t.chunks c

let mark t addr =
  if t.track_dirty then Hashtbl.replace t.dirty (addr lsr chunk_bits) ()

(* Map every chunk overlapping [addr, addr+len). Freshly mapped chunks are
   zero-filled. Mapping an already-mapped chunk is a no-op. *)
let map t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr chunk_bits and last = (addr + len - 1) lsr chunk_bits in
    for c = first to last do
      if not (Hashtbl.mem t.chunks c) then
        Hashtbl.replace t.chunks c (Bytes.make chunk_size '\000')
    done
  end

let is_mapped t addr = Hashtbl.mem t.chunks (addr lsr chunk_bits)

(* Allocation-free on every path but the fault: the cache hit is two loads,
   and a miss uses [Hashtbl.find], which returns the bytes unwrapped. *)
let chunk_of t addr =
  let c = addr lsr chunk_bits in
  if c = t.last_c then t.last_b
  else
    match Hashtbl.find t.chunks c with
    | b ->
      t.last_c <- c;
      t.last_b <- b;
      b
    | exception Not_found -> raise (Fault addr)

(* Single-byte accessors; multi-byte accessors decompose at chunk borders
   (rare) and use fast Bytes primitives within a chunk. *)

let get_u8 t addr =
  t.reads <- t.reads + 1;
  Char.code (Bytes.unsafe_get (chunk_of t addr) (addr land (chunk_size - 1)))

let set_u8 t addr v =
  t.writes <- t.writes + 1;
  mark t addr;
  Bytes.unsafe_set (chunk_of t addr) (addr land (chunk_size - 1))
    (Char.unsafe_chr (v land 0xff))

let in_chunk addr width = addr land (chunk_size - 1) <= chunk_size - width

let get_u16 t addr =
  if in_chunk addr 2 then begin
    t.reads <- t.reads + 1;
    Bytes.get_uint16_le (chunk_of t addr) (addr land (chunk_size - 1))
  end
  else get_u8 t addr lor (get_u8 t (addr + 1) lsl 8)

let set_u16 t addr v =
  if in_chunk addr 2 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    Bytes.set_uint16_le (chunk_of t addr) (addr land (chunk_size - 1)) (v land 0xffff)
  end
  else begin
    set_u8 t addr v;
    set_u8 t (addr + 1) (v lsr 8)
  end

let get_u32 t addr =
  if in_chunk addr 4 then begin
    t.reads <- t.reads + 1;
    Int32.to_int (Bytes.get_int32_le (chunk_of t addr) (addr land (chunk_size - 1)))
    land 0xffffffff
  end
  else get_u16 t addr lor (get_u16 t (addr + 2) lsl 16)

let set_u32 t addr v =
  if in_chunk addr 4 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    Bytes.set_int32_le (chunk_of t addr) (addr land (chunk_size - 1))
      (Int32.of_int (v land 0xffffffff))
  end
  else begin
    set_u16 t addr v;
    set_u16 t (addr + 2) (v lsr 16)
  end

let get_i64 t addr =
  if in_chunk addr 8 then begin
    t.reads <- t.reads + 1;
    Bytes.get_int64_le (chunk_of t addr) (addr land (chunk_size - 1))
  end
  else
    Int64.logor
      (Int64.of_int (get_u32 t addr))
      (Int64.shift_left (Int64.of_int (get_u32 t (addr + 4))) 32)

let set_i64 t addr v =
  if in_chunk addr 8 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    Bytes.set_int64_le (chunk_of t addr) (addr land (chunk_size - 1)) v
  end
  else begin
    set_u32 t addr (Int64.to_int (Int64.logand v 0xffffffffL));
    set_u32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical v 32))
  end

(* 8-byte moves straight between guest memory and a register cell, so the
   value is never boxed. A chunk is bytes too, so the cell primitives read
   and write it; guest memory is little-endian, cells are in host order. *)
external bswap64 : int64 -> int64 = "%bswap_int64"

let get_i64_into t addr c o =
  if in_chunk addr 8 then begin
    t.reads <- t.reads + 1;
    let b = chunk_of t addr and i = addr land (chunk_size - 1) in
    if Sys.big_endian then Cell.set c o (bswap64 (Cell.get b i))
    else Cell.set c o (Cell.get b i)
  end
  else Cell.set c o (get_i64 t addr)

let set_i64_from t addr c o =
  if in_chunk addr 8 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    let b = chunk_of t addr and i = addr land (chunk_size - 1) in
    if Sys.big_endian then Cell.set b i (bswap64 (Cell.get c o))
    else Cell.set b i (Cell.get c o)
  end
  else set_i64 t addr (Cell.get c o)

(* Zero a mapped range (used when the VM flushes its dispatch table). *)
let fill_zero t ~addr ~len =
  let i = ref 0 in
  while !i < len do
    if len - !i >= 8 && in_chunk (addr + !i) 8 then begin
      set_i64 t (addr + !i) 0L;
      i := !i + 8
    end
    else begin
      set_u8 t (addr + !i) 0;
      incr i
    end
  done

(* Bulk write used by the program loader. *)
let blit_string t ~addr s =
  String.iteri (fun i c -> set_u8 t (addr + i) (Char.code c)) s

(* FNV-1a checksum over a mapped range; used by tests to compare final memory
   images between execution modes. *)
let checksum t ~addr ~len =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    let b = if is_mapped t (addr + i) then get_u8 t (addr + i) else 0 in
    h := Int64.mul (Int64.logxor !h (Int64.of_int b)) 0x100000001b3L
  done;
  !h
