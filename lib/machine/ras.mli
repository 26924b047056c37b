(** Conventional hardware return address stack, 8 entries (Table 1).

    A circular stack: pushes past capacity overwrite the oldest entry; pops
    from empty return [None]. Used by the superscalar model for native and
    straightened Alpha code with ordinary BSR/JSR..RET pairs. *)

type t = { buf : int array; mutable top : int; mutable depth : int }

val create : ?entries:int -> unit -> t
val clear : t -> unit
val push : t -> int -> unit
val pop : t -> int option

val pop_is : t -> int -> bool
(** [pop_is t a] pops like [pop] and is [pop t = Some a], without
    allocating. *)
