open Machine

(* Front-end prediction bundle shared by both timing models: g-share
   direction predictor, BTB, conventional RAS, and the dual-address RAS
   outcome carried on events by the functional simulator (the functional
   and timing dual-RAS behaviours are identical by construction: both pop
   the same stream).

   Each committed control event is classified into:
   - [`Seq]        no transfer (or correctly predicted not-taken)
   - [`Taken_ok]   taken, direction and target both predicted
   - [`Misfetch]   direction right but the target was not fetchable (BTB
                   miss/stale): the front end refetches after the redirect
                   latency
   - [`Mispredict] direction or target wrong: the front end restarts after
                   the instruction resolves *)

type t = {
  gshare : Gshare.t;
  btb : Btb.t;
  ras : Ras.t;
  use_ras : bool; (* false: returns fall back to the BTB (Fig. 6 no-RAS) *)
  mutable control : int; (* control-transfer instructions seen *)
  mutable mispredicts : int;
  mutable misfetches : int;
}

let create ?(use_ras = true) () =
  {
    gshare = Gshare.create ();
    btb = Btb.create ();
    ras = Ras.create ();
    use_ras;
    control = 0;
    mispredicts = 0;
    misfetches = 0;
  }

type outcome = [ `Seq | `Taken_ok | `Misfetch | `Mispredict ]

let btb_target_ok t (ev : Ev.t) =
  let hit = Btb.predicts t.btb ev.pc ~target:ev.target in
  Btb.update t.btb ev.pc ~target:ev.target;
  hit

let classify t (ev : Ev.t) : outcome =
  match ev.pred with
  | Not_control -> `Seq
  | P_dras_call -> `Seq (* the push itself transfers nothing *)
  | P_cond ->
    t.control <- t.control + 1;
    let dir_ok = Gshare.predict_update t.gshare ev.pc ~taken:ev.taken in
    if not dir_ok then begin
      t.mispredicts <- t.mispredicts + 1;
      if ev.taken then Btb.update t.btb ev.pc ~target:ev.target;
      `Mispredict
    end
    else if not ev.taken then `Seq
    else if btb_target_ok t ev then `Taken_ok
    else begin
      t.misfetches <- t.misfetches + 1;
      `Misfetch
    end
  | P_direct ->
    t.control <- t.control + 1;
    if btb_target_ok t ev then `Taken_ok
    else begin
      t.misfetches <- t.misfetches + 1;
      `Misfetch
    end
  | P_indirect ->
    t.control <- t.control + 1;
    if btb_target_ok t ev then `Taken_ok
    else begin
      t.mispredicts <- t.mispredicts + 1;
      `Mispredict
    end
  | P_ras_call ->
    (* direct call: the decoder can compute the target, so a BTB miss only
       costs a misfetch *)
    t.control <- t.control + 1;
    Ras.push t.ras (ev.pc + ev.size);
    if btb_target_ok t ev then `Taken_ok
    else begin
      t.misfetches <- t.misfetches + 1;
      `Misfetch
    end
  | P_ras_call_ind ->
    t.control <- t.control + 1;
    Ras.push t.ras (ev.pc + ev.size);
    if btb_target_ok t ev then `Taken_ok
    else begin
      t.mispredicts <- t.mispredicts + 1;
      `Mispredict
    end
  | P_ras_ret when t.use_ras ->
    t.control <- t.control + 1;
    if Ras.pop_is t.ras ev.target then `Taken_ok
    else begin
      t.mispredicts <- t.mispredicts + 1;
      `Mispredict
    end
  | P_ras_ret ->
    (* RAS disabled: predict the return through the BTB like any other
       register-indirect jump *)
    t.control <- t.control + 1;
    if btb_target_ok t ev then `Taken_ok
    else begin
      t.mispredicts <- t.mispredicts + 1;
      `Mispredict
    end
  | P_dras_ret hit ->
    t.control <- t.control + 1;
    if hit then `Taken_ok
    else begin
      t.mispredicts <- t.mispredicts + 1;
      `Mispredict
    end

(* Mispredictions per 1000 committed instructions (Fig. 4's metric). *)
let mpki t ~insns =
  if insns = 0 then 0.0
  else 1000.0 *. float_of_int t.mispredicts /. float_of_int insns
