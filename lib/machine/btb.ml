(* Branch target buffer: 512-entry, 4-way set-associative (Table 1).

   Predicts the target address of taken control transfers. A taken branch
   whose target is absent or stale is a "misfetch": the front end loses the
   fetch-redirect latency even when the direction prediction was right. *)

type t = {
  sets : int;
  ways : int;
  tags : int array;
  targets : int array;
  stamp : int array;
  mutable tick : int;
}

let create ?(entries = 512) ?(ways = 4) () =
  let sets = entries / ways in
  assert (sets > 0 && sets land (sets - 1) = 0);
  {
    sets;
    ways;
    tags = Array.make entries (-1);
    targets = Array.make entries 0;
    stamp = Array.make entries 0;
    tick = 0;
  }

let set_of t pc = (pc lsr 2) land (t.sets - 1)

(* Way of the line tagged [pc] in the set starting at [base], -1 when
   absent. *)
let rec way_of t base pc w =
  if w >= t.ways then -1
  else if t.tags.(base + w) = pc then w
  else way_of t base pc (w + 1)

(* Predicted target for the control instruction at [pc], if present. *)
let lookup t pc =
  let base = set_of t pc * t.ways in
  let w = way_of t base pc 0 in
  if w < 0 then None else Some t.targets.(base + w)

(* [lookup t pc = Some target], without allocating: the timing models ask
   this once per taken transfer. *)
let predicts t pc ~target =
  let base = set_of t pc * t.ways in
  let w = way_of t base pc 0 in
  w >= 0 && t.targets.(base + w) = target

(* Record that [pc] transferred to [target], installing/refreshing a line. *)
let update t pc ~target =
  t.tick <- t.tick + 1;
  let base = set_of t pc * t.ways in
  let way = ref (-1) in
  for w = 0 to t.ways - 1 do
    if t.tags.(base + w) = pc then way := w
  done;
  if !way < 0 then begin
    (* evict LRU *)
    let best = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.stamp.(base + w) < t.stamp.(base + !best) then best := w
    done;
    way := !best;
    t.tags.(base + !way) <- pc
  end;
  t.targets.(base + !way) <- target;
  t.stamp.(base + !way) <- t.tick
