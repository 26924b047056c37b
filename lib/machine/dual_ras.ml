(* Dual-address return address stack — the paper's proposed co-designed VM
   hardware feature (Section 3.2).

   Each entry pairs a V-ISA (source) return address with the I-ISA
   (translated-code) address at which execution should resume. A
   [push-dual-RAS] instruction pushes the pair; a dual-RAS return pops it,
   compares the predicted V-address against the architected return-address
   register, and on a match jumps straight to the popped I-address. On a
   mismatch control falls through to chaining code that reaches the shared
   dispatch. *)

(* A pair lives in two parallel arrays, [v_addrs] and [i_addrs].
   [i_addr = None] records a call whose return point has no translation
   (yet): the pair still occupies a stack slot so call/return nesting stays
   aligned, but a verifying pop cannot produce a target and reports a miss.
   (An earlier version stored a [-1] sentinel integer here and relied on
   every consumer filtering it out; the option makes the "no target" case
   impossible to mistake for a live I-address.) Neither operation
   allocates: [push] stores the option its caller built (translated code
   builds it once, when the push is compiled) and a verified [pop_verify]
   returns that same stored option. *)
type t = {
  v_addrs : int array;
  i_addrs : int option array;
  mutable top : int;
  mutable depth : int;
  mutable pushes : int;
  mutable pops : int;
  mutable hits : int;
  mutable overflows : int;
}

let create ?(entries = 8) () =
  {
    v_addrs = Array.make entries 0;
    i_addrs = Array.make entries None;
    top = 0;
    depth = 0;
    pushes = 0;
    pops = 0;
    hits = 0;
    overflows = 0;
  }

let clear t =
  t.top <- 0;
  t.depth <- 0

let push t ~v_addr ~i_addr =
  let n = Array.length t.v_addrs in
  t.pushes <- t.pushes + 1;
  if t.depth = n then t.overflows <- t.overflows + 1;
  t.v_addrs.(t.top) <- v_addr;
  t.i_addrs.(t.top) <- i_addr;
  t.top <- (t.top + 1) mod n;
  t.depth <- min (t.depth + 1) n

(* Pop and verify against the actual V-ISA return address held in the return
   register. Returns [Some i_addr] when the prediction verifies (the common
   case), [None] when the stack was empty, the pair is stale, or the pushed
   return point had no translated target. Only a usable target counts as a
   hit — a verified pair without an I-address still falls through to the
   dispatch, which is a miss as far as the hardware is concerned. *)
let pop_verify t ~v_actual =
  let n = Array.length t.v_addrs in
  t.pops <- t.pops + 1;
  if t.depth = 0 then None
  else begin
    t.top <- (t.top + n - 1) mod n;
    t.depth <- t.depth - 1;
    match t.i_addrs.(t.top) with
    | Some _ as i when t.v_addrs.(t.top) = v_actual ->
      t.hits <- t.hits + 1;
      i
    | _ -> None
  end

let hit_rate t =
  if t.pops = 0 then 1.0 else float_of_int t.hits /. float_of_int t.pops
