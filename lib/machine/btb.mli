(** Branch target buffer: 512 entries, 4-way set-associative (Table 1).

    Predicts taken-transfer targets; a taken branch with an absent or stale
    entry costs the front end a fetch redirect. *)

type t = {
  sets : int;
  ways : int;
  tags : int array;
  targets : int array;
  stamp : int array;
  mutable tick : int;
}

val create : ?entries:int -> ?ways:int -> unit -> t

val lookup : t -> int -> int option
(** Predicted target for the control instruction at a PC, if present. *)

val predicts : t -> int -> target:int -> bool
(** [predicts t pc ~target] is [lookup t pc = Some target], without
    allocating. *)

val update : t -> int -> target:int -> unit
(** Record that the instruction transferred to [target] (LRU install). *)
