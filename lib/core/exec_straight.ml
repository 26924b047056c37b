module Memory = Machine.Memory
module A = Alpha.Insn

(* The straightened-Alpha backend of {!Exec}: no registers of its own (it
   executes straight on the interpreter's register file), the slot compiler
   and the instrumented step for {!Alpha.Insn.t}. Control convention inside
   the translation cache: Bc/Br immediate fields and the register consumed
   by Jump hold absolute slot indices (see {!Straighten}). *)

type engine = (Straighten.ctx, unit) Exec.t

(* Access width in bytes of a load or store. *)
let bytes_of_mem : A.mem_op -> int = function
  | Ldq | Stq -> 8
  | Ldl | Stl -> 4
  | Ldwu | Stw -> 2
  | _ -> 1

(* ---------- threaded-code engine: slot compilation ---------- *)

(* Compile-time operand locations: r31 reads as zero and discards writes,
   every other register is a direct cell of the shared register array. *)
let check_reg r =
  if r < 0 || r > 31 then invalid_arg "exec_straight: register out of range"

let reg_loc regs r : Exec.loc =
  check_reg r;
  if r = Alpha.Reg.zero then L_const 0L else L_arr (regs, r)

let operand_loc regs : A.operand -> Exec.loc = function
  | Rb r -> reg_loc regs r
  | Imm i -> L_const (Int64.of_int i)

(* Write cell; [None] when the write is architecturally discarded. *)
let wreg_loc r =
  check_reg r;
  if r = Alpha.Reg.zero then None else Some r

let wr_fn regs r : int64 -> unit =
  match wreg_loc r with
  | Some i -> fun v -> Array.unsafe_set regs i v
  | None -> fun _ -> ()

let compile (t : engine) s : (Straighten.ctx, unit) Exec.op =
  let tc = t.ctx.tc in
  let insn = Tcache.Straight.get tc s in
  let next = s + 1 in
  let regs = t.interp.regs in
  let reg_loc = reg_loc regs in
  let check_static =
    Exec.check_static ~n_slots:(Tcache.Straight.n_slots tc) ~slot:s
  in
  match insn with
    | A.Mem (((Lda | Ldah) as op), ra, disp, rb) -> (
      let d =
        Int64.of_int (match op with Ldah -> disp * 65536 | _ -> disp)
      in
      match (wreg_loc ra, reg_loc rb) with
      | None, _ -> fun _ -> next
      | Some ia, L_arr (_, ib) ->
        fun _ ->
          Array.unsafe_set regs ia (Int64.add (Array.unsafe_get regs ib) d);
          next
      | Some ia, L_const cb ->
        let v = Int64.add cb d in
        fun _ ->
          Array.unsafe_set regs ia v;
          next)
    | A.Mem (((Ldq | Ldl | Ldwu | Ldbu) as op), ra, disp, rb) -> (
      let mem = t.interp.mem in
      let bytes = bytes_of_mem op in
      let amask = bytes - 1 in
      let ld = Exec.load_fn ~bytes ~signed:true in
      match (wreg_loc ra, reg_loc rb) with
      | Some ia, L_arr (_, ib) ->
        fun _ ->
          let addr =
            (Int64.to_int (Array.unsafe_get regs ib) + disp)
            land Alpha.Interp.addr_mask
          in
          if addr land amask <> 0 then Exec.ret_fault
          else (
            match ld mem addr with
            | v ->
              Array.unsafe_set regs ia v;
              next
            | exception Memory.Fault _ -> Exec.ret_fault)
      | _, base ->
        (* zero base or discarded destination *)
        Exec.load_op mem ~bytes ~signed:true ~base ~disp ~next (wr_fn regs ra))
    | A.Mem (((Stq | Stl | Stw | Stb) as op), ra, disp, rb) ->
      Exec.store_op t.interp.mem ~bytes:(bytes_of_mem op) ~value:(reg_loc ra)
        ~base:(reg_loc rb) ~disp ~next
    | A.Opr (op, ra, operand, rc) -> (
      if A.is_cmov insn then
        let c = Alpha.Insn.cond_fn (A.cmov_cond op) in
        let gra = Exec.loc_fn (reg_loc ra) in
        let gb = Exec.loc_fn (operand_loc regs operand) in
        match wreg_loc rc with
        | None -> fun _ -> next
        | Some ic ->
          fun _ ->
            if c (gra ()) then Array.unsafe_set regs ic (gb ());
            next
      else
        let f = Alpha.Insn.eval_fn op in
        match (wreg_loc rc, reg_loc ra, operand_loc regs operand) with
        | None, _, _ -> fun _ -> next
        | Some ic, L_arr (_, ia), L_arr (_, ib) ->
          fun _ ->
            Array.unsafe_set regs ic
              (f (Array.unsafe_get regs ia) (Array.unsafe_get regs ib));
            next
        | Some ic, L_arr (_, ia), L_const cb ->
          fun _ ->
            Array.unsafe_set regs ic (f (Array.unsafe_get regs ia) cb);
            next
        | Some ic, L_const ca, L_arr (_, ib) ->
          fun _ ->
            Array.unsafe_set regs ic (f ca (Array.unsafe_get regs ib));
            next
        | Some ic, L_const ca, L_const cb ->
          let v = f ca cb in
          fun _ ->
            Array.unsafe_set regs ic v;
            next)
    | A.Br (_, target) ->
      check_static target;
      Exec.br_op (Tcache.Straight.frag_of_entry tc target) target
    | A.Bc (c, ra, target) ->
      check_static target;
      Exec.bc_op
        (Tcache.Straight.frag_of_entry tc target)
        (Alpha.Insn.cond_fn c) (reg_loc ra) ~target ~next
    | A.Jump (_, _, rb) ->
      let grb = Exec.loc_fn (reg_loc rb) in
      fun t -> Exec.jump t (Int64.to_int (grb ()))
    | A.Lta (ra, v) ->
      let w = wr_fn regs ra in
      let v = Int64.of_int v in
      fun _ ->
        w v;
        next
    | A.Push_dras (ra, v_ret, i_ret) ->
      Exec.push_dras_op t.ctx.cfg.chaining (wr_fn regs ra) ~v_ret ~i_ret ~next
    | A.Ret_dras rb ->
      let grb = Exec.loc_fn (reg_loc rb) in
      fun t -> Exec.ret_dras t ~v_actual:(Int64.to_int (grb ())) ~next
    | A.Set_vbase v ->
      fun t ->
        t.vbase <- v;
        next
    | A.Call_xlate exit_id ->
      let code = Exec.ret_exit exit_id in
      fun _ -> code
    | A.Call_xlate_cond (c, ra, exit_id) ->
      Exec.exit_cond_op (Alpha.Insn.cond_fn c)
        (Exec.loc_fn (reg_loc ra))
        ~exit_id ~next
    | A.Bsr _ | A.Call_pal _ ->
      fun _ -> failwith "exec_straight: untranslatable instruction in cache"

(* ---------- instrumented engine: one slot ---------- *)

let get (t : engine) r = Alpha.Interp.get t.interp r
let set (t : engine) r v = Alpha.Interp.set t.interp r v

let step (t : engine) s =
  let next = s + 1 in
  match Tcache.Straight.get t.ctx.tc s with
  | A.Mem (Lda, ra, disp, rb) ->
    set t ra (Int64.add (get t rb) (Int64.of_int disp));
    next
  | A.Mem (Ldah, ra, disp, rb) ->
    set t ra (Int64.add (get t rb) (Int64.of_int (disp * 65536)));
    next
  | A.Mem (op, ra, disp, rb) ->
    let bytes = bytes_of_mem op in
    let addr = Exec.ea_checked t ~bytes (get t rb) disp in
    let mem = t.interp.mem in
    (match op with
    | Ldq | Ldl | Ldwu | Ldbu ->
      let ld = Exec.load_fn ~bytes ~signed:true in
      set t ra (ld mem addr)
    | _ ->
      let st = Exec.store_fn ~bytes in
      st mem addr (get t ra));
    next
  | A.Opr (op, ra, operand, rc) as insn ->
    let b = match operand with A.Rb r -> get t r | Imm i -> Int64.of_int i in
    if A.is_cmov insn then begin
      if A.cond_true (A.cmov_cond op) (get t ra) then set t rc b
    end
    else set t rc (A.eval_op op (get t ra) b);
    next
  | A.Br (_, target) -> Exec.jump t target
  | A.Bc (c, ra, target) ->
    if A.cond_true c (get t ra) then Exec.jump t target else next
  | A.Jump (_, _, rb) -> Exec.jump t (Int64.to_int (get t rb))
  | A.Lta (ra, v) ->
    set t ra (Int64.of_int v);
    next
  | A.Push_dras (ra, v_ret, i_ret) ->
    set t ra (Int64.of_int v_ret);
    Exec.push_dras t t.ctx.cfg.chaining ~v_ret ~i_ret;
    next
  | A.Ret_dras rb -> Exec.ret_dras t ~v_actual:(Int64.to_int (get t rb)) ~next
  | A.Set_vbase v ->
    t.vbase <- v;
    next
  | A.Call_xlate exit_id -> Exec.ret_exit exit_id
  | A.Call_xlate_cond (c, ra, exit_id) ->
    if A.cond_true c (get t ra) then begin
      t.taken <- true;
      Exec.ret_exit exit_id
    end
    else next
  | A.Bsr _ | A.Call_pal _ ->
    failwith "exec_straight: untranslatable instruction in cache"

include Exec.Make (struct
  type ctx = Straighten.ctx
  type regs = unit

  module Tc = Tcache.Straight

  let tc (c : ctx) = c.tc
  let cfg (c : ctx) = c.cfg
  let exits (c : ctx) = c.exits
  let slot_alpha (c : ctx) = c.slot_alpha
  let slot_class (c : ctx) = c.slot_class
  let regs () = ()
  let compile = compile
  let step = step

  let event (t : engine) s ~alpha ~target =
    let tc = t.ctx.tc in
    Alpha.Trace.ev_of_exec ~dras_hit:t.dras_hit ~alpha_count:alpha
      ~pc:(Tcache.Straight.addr_of tc s) ~insn:(Tcache.Straight.get tc s)
      ~taken:t.taken ~target ~ea:t.ea ()

  let repair (t : engine) s =
    Option.map (fun p -> p.Tcache.pei_v_pc) (Tcache.Straight.pei_at t.ctx.tc s)

  (* Dynamic dispatch-miss target lives in GP by convention. *)
  let dispatch_target (t : engine) =
    Int64.to_int (Alpha.Interp.get t.interp Straighten.gp)
end)
