(* Unboxed 64-bit register cells: a [Bytes.t] addressed by byte offset. *)

type t = Bytes.t

external get : t -> int -> int64 = "%caml_bytes_get64u"
external set : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create n = Bytes.make (8 * n) '\000'

let const v =
  let c = create 1 in
  set c 0 v;
  c
