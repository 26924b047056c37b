(** Dual-address return address stack — the paper's proposed co-designed VM
    hardware feature (Section 3.2).

    Each entry pairs a V-ISA (source) return address with the I-ISA
    (translated-code) address at which execution should resume. A
    push-dual-RAS instruction pushes the pair; a dual-RAS return pops it,
    verifies the V-address against the architected return register, and on
    a match jumps straight to the popped I-address. *)

type t = {
  v_addrs : int array;  (** V-ISA return address of each pair *)
  i_addrs : int option array;
      (** I-ISA resume slot of each pair. [None] records a call whose
          return point has no translated target: the slot keeps
          call/return nesting aligned, but a verifying pop cannot jump
          anywhere and is counted as a miss. *)
  mutable top : int;
  mutable depth : int;
  mutable pushes : int;
  mutable pops : int;
  mutable hits : int;
  mutable overflows : int;
      (** pushes that evicted a live entry (stack already at capacity) *)
}

val create : ?entries:int -> unit -> t
(** 8 entries by default (Table 1). *)

val clear : t -> unit

val push : t -> v_addr:int -> i_addr:int option -> unit
(** Push a pair; beyond capacity the oldest entry is overwritten. The
    option is stored as given, so pushing a prebuilt one allocates
    nothing. *)

val pop_verify : t -> v_actual:int -> int option
(** Pop and verify against the actual V-ISA return address. [Some i_addr]
    when the prediction verifies against a live target; [None] when the
    stack was empty, the pair is stale, or the pushed return point had no
    translation (only the [Some] case counts as a hit). A hit returns the
    option stored by {!push}, without allocating. *)

val hit_rate : t -> float
