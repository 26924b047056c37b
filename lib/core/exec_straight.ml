module Cell = Machine.Cell
module A = Alpha.Insn

(* The straightened-Alpha backend of {!Exec}: no registers of its own (it
   executes straight on the interpreter's register file), the slot compiler
   and the event facts for {!Alpha.Insn.t}. Control convention inside
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

(* Compile-time operand locations: cells of the interpreter's register file
   (see {!Alpha.Interp}), where r31 reads as zero and its writes land in
   the discard cell. *)
let check_reg r =
  if r < 0 || r > 31 then invalid_arg "exec_straight: register out of range"

let rd_off r =
  check_reg r;
  r lsl 3

let wr_off r =
  check_reg r;
  Alpha.Interp.wr_off r

let reg_loc regs r : Exec.loc = { file = regs; off = rd_off r }
let wreg_loc regs r : Exec.loc = { file = regs; off = wr_off r }

let operand_loc regs : A.operand -> Exec.loc = function
  | Rb r -> reg_loc regs r
  | Imm i -> Exec.const (Int64.of_int i)

let compile (t : engine) s : (Straighten.ctx, unit) Exec.op =
  let tc = t.ctx.tc in
  let insn = Tcache.Straight.get tc s in
  let next = s + 1 in
  let regs = t.interp.regs in
  let reg_loc = reg_loc regs and wreg_loc = wreg_loc regs in
  let check_static =
    Exec.check_static ~n_slots:(Tcache.Straight.n_slots tc) ~slot:s
  in
  match insn with
    | A.Mem (((Lda | Ldah) as op), ra, disp, rb) ->
      let d =
        Int64.of_int (match op with Ldah -> disp * 65536 | _ -> disp)
      in
      let od = wr_off ra and ob = rd_off rb in
      fun _ ->
        Cell.set regs od (Int64.add (Cell.get regs ob) d);
        next
    | A.Mem (((Ldq | Ldl | Ldwu | Ldbu) as op), ra, disp, rb) ->
      Exec.load_op t.interp.mem ~bytes:(bytes_of_mem op) ~signed:true
        ~base:(reg_loc rb) ~disp ~next (wreg_loc ra)
    | A.Mem (((Stq | Stl | Stw | Stb) as op), ra, disp, rb) ->
      Exec.store_op t.interp.mem ~bytes:(bytes_of_mem op) ~value:(reg_loc ra)
        ~base:(reg_loc rb) ~disp ~next
    | A.Opr (op, ra, operand, rc) ->
      let oa = rd_off ra and od = wr_off rc in
      let b = operand_loc regs operand in
      let xb = b.file and ob = b.off in
      if A.is_cmov insn then
        let c = Alpha.Insn.cond_cell (A.cmov_cond op) in
        fun _ ->
          if c regs oa then Cell.set regs od (Cell.get xb ob);
          next
      else
        let f = Alpha.Insn.eval_into op in
        fun _ ->
          f regs od regs oa xb ob;
          next
    | A.Br (_, target) ->
      check_static target;
      Exec.br_op (Tcache.Straight.frag_of_entry tc target) target
    | A.Bc (c, ra, target) ->
      check_static target;
      Exec.bc_op
        (Tcache.Straight.frag_of_entry tc target)
        c (reg_loc ra) ~target ~next
    | A.Jump (_, _, rb) -> Exec.jump_op (reg_loc rb)
    | A.Lta (ra, v) ->
      Exec.copy_op ~src:(Exec.const (Int64.of_int v)) ~dst:(wreg_loc ra) ~next
    | A.Push_dras (ra, v_ret, i_ret) ->
      Exec.push_dras_op t.ctx.cfg.chaining (wreg_loc ra) ~v_ret ~i_ret ~next
    | A.Ret_dras rb -> Exec.ret_dras_op (reg_loc rb) ~next
    | A.Set_vbase v ->
      fun t ->
        t.vbase <- v;
        next
    | A.Call_xlate exit_id ->
      let code = Exec.ret_exit exit_id in
      fun _ -> code
    | A.Call_xlate_cond (c, ra, exit_id) ->
      Exec.exit_cond_op c (reg_loc ra) ~exit_id ~next
    | A.Bsr _ | A.Call_pal _ ->
      fun _ -> failwith "exec_straight: untranslatable instruction in cache"

(* ---------- event facts ---------- *)

let ea (t : engine) s =
  match Tcache.Straight.get t.ctx.tc s with
  | A.Mem ((Lda | Ldah), _, _, _) -> 0
  | A.Mem (_, _, disp, rb) -> Exec.ea_of_cell t.interp.regs (rd_off rb) disp
  | _ -> 0

(* A conditional branch writes nothing, so its condition register still
   holds the value the op tested; a conditional exit is taken when it
   exits. *)
let taken (t : engine) res : A.t -> bool = function
  | Br _ | Jump _ -> true
  | Bc (c, ra, _) -> A.cond_cell c t.interp.regs (rd_off ra)
  | Ret_dras _ -> res = Exec.ret_dynamic
  | Call_xlate_cond _ -> res < 0
  | _ -> false

let event (t : engine) s ~res ~ea ~alpha ~target =
  let tc = t.ctx.tc in
  let insn = Tcache.Straight.get tc s in
  Alpha.Trace.ev_of_exec ~dras_hit:(res = Exec.ret_dynamic)
    ~alpha_count:alpha ~pc:(Tcache.Straight.addr_of tc s) ~insn
    ~taken:(taken t res insn) ~target ~ea ()

include Exec.Make (struct
  type ctx = Straighten.ctx
  type regs = unit

  module Tc = Tcache.Straight

  let tc (c : ctx) = c.tc
  let exits (c : ctx) = c.exits
  let slot_alpha (c : ctx) = c.slot_alpha
  let slot_class (c : ctx) = c.slot_class
  let regs () = ()
  let compile = compile
  let ea = ea
  let event = event

  let repair (t : engine) s =
    Option.map (fun p -> p.Tcache.pei_v_pc) (Tcache.Straight.pei_at t.ctx.tc s)

  (* Dynamic dispatch-miss target lives in GP by convention. *)
  let dispatch_target (t : engine) =
    Int64.to_int (Alpha.Interp.get t.interp Straighten.gp)
end)
