module Memory = Machine.Memory
module Cell = Machine.Cell
module I = Accisa.Insn

(* The accumulator-ISA backend of {!Exec}: accumulators, their predicate
   flags and the VM scratch registers, the slot compiler and the event
   facts for {!Accisa.Insn.t}, and PEI repair that writes
   architected values still living only in accumulators back to the
   register file. *)

type regs = {
  scratch : Cell.t; (* VM registers 32..63 *)
  accs : Cell.t;
  preds : bool array; (* conditional-move predicate flag per accumulator *)
}

let n_accs = 8

type engine = (Translate.ctx, regs) Exec.t

(* ---------- register cells ----------

   GPRs 0..31 are the interpreter's architected cells (r31 reads its zero
   cell and writes the discard cell), 32..63 the engine's scratch cells.
   Indices are validated here, when a register is resolved to its cell, so
   the cell accesses after it can be unchecked. The file and the offset
   are separate functions so the event facts resolve a register without
   allocating a {!Exec.loc}. *)

let gpr_file (t : engine) g =
  if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
  if g < 32 then t.interp.regs else t.regs.scratch

let gpr_off g = if g < 32 then g lsl 3 else (g - 32) lsl 3
let gpr_woff g = if g < 32 then Alpha.Interp.wr_off g else (g - 32) lsl 3

let check_acc a =
  if a < 0 || a >= n_accs then invalid_arg "exec_acc: accumulator out of range"

let acc_off a =
  check_acc a;
  a lsl 3

let gpr_loc t g : Exec.loc = { file = gpr_file t g; off = gpr_off g }
let gpr_wloc t g : Exec.loc = { file = gpr_file t g; off = gpr_woff g }

let src_loc (t : engine) : I.src -> Exec.loc = function
  | Sacc a -> { file = t.regs.accs; off = acc_off a }
  | Sgpr g -> gpr_loc t g
  | Simm v -> Exec.const v

(* An operand's value, for the event facts: the cell is read straight
   into an [int], so nothing is boxed. *)
let src_int (t : engine) : I.src -> int = function
  | Sacc a -> Int64.to_int (Cell.get t.regs.accs (acc_off a))
  | Sgpr g -> Int64.to_int (Cell.get (gpr_file t g) (gpr_off g))
  | Simm v -> Int64.to_int v

(* Write an accumulator back to architected register [r]. *)
let acc_to_arch (t : engine) (a, r) =
  if r < 0 || r > 31 then invalid_arg "exec_acc: PEI map register out of range";
  Cell.set t.interp.regs (Alpha.Interp.wr_off r)
    (Cell.get t.regs.accs (acc_off a))

(* Apply the PEI-table accumulator map: architected values still living only
   in accumulators are written back to the register file. *)
let apply_pei_map (t : engine) slot =
  match Tcache.Acc.pei_at t.ctx.tc slot with
  | Some pei ->
    Array.iter (acc_to_arch t) pei.Tcache.acc_map;
    Some pei.pei_v_pc
  | None -> None

(* ---------- threaded-code engine: slot compilation ---------- *)

(* Compile-time destination shapes: an accumulator (its predicate flag is
   cleared, and the value is copied to its embedded GPR, or to the discard
   cell when there is none), or a GPR alone (the discard cell when the
   write is architecturally dropped or there is no destination at all). *)
type wshape = W_acc of int * Exec.loc | W_gpr of Exec.loc

let dst_shape (t : engine) (d : I.dst) =
  let gpr =
    match d.gdst with
    | Some g -> gpr_wloc t g
    | None -> { file = t.interp.regs; off = Alpha.Interp.discard_cell lsl 3 }
  in
  if d.dacc >= 0 then begin
    check_acc d.dacc;
    W_acc (d.dacc, gpr)
  end
  else W_gpr gpr

(* Destination as a closure copying a cell into it, for the colder
   instructions; the hot ALU and load shapes inline it. *)
let dst_from (t : engine) (d : I.dst) : Cell.t -> int -> unit =
  let accs = t.regs.accs and preds = t.regs.preds in
  match dst_shape t d with
  | W_acc (acc, g) ->
    let od = acc lsl 3 and xg = g.file and og = g.off in
    fun x i ->
      let v = Cell.get x i in
      Cell.set accs od v;
      Array.unsafe_set preds acc false;
      Cell.set xg og v
  | W_gpr g ->
    let xg = g.file and og = g.off in
    fun x i -> Cell.set xg og (Cell.get x i)

let compile (t : engine) s : (Translate.ctx, regs) Exec.op =
  let tc = t.ctx.tc in
  let insn = Tcache.Acc.get tc s in
  let next = s + 1 in
  let check_static =
    Exec.check_static ~n_slots:(Tcache.Acc.n_slots tc) ~slot:s
  in
  let accs = t.regs.accs and preds = t.regs.preds in
  match insn with
    | I.Alu { op; d; a; b } -> (
      let f = Alpha.Insn.eval_into op in
      let a = src_loc t a and b = src_loc t b in
      let xa = a.file and oa = a.off and xb = b.file and ob = b.off in
      match dst_shape t d with
      | W_acc (acc, g) ->
        let od = acc lsl 3 and xg = g.file and og = g.off in
        fun _ ->
          f accs od xa oa xb ob;
          Array.unsafe_set preds acc false;
          Cell.set xg og (Cell.get accs od);
          next
      | W_gpr g ->
        let xg = g.file and og = g.off in
        fun _ ->
          f xg og xa oa xb ob;
          next)
    | I.Cmov_test { cond; d; cv; old } ->
      let da = d.dacc in
      if da < 0 || da >= n_accs then
        invalid_arg "exec_acc: cmov-test without an accumulator destination";
      let c = Alpha.Insn.cond_cell cond and w = dst_from t d in
      let cv = src_loc t cv and old = src_loc t old in
      let xc = cv.file and oc = cv.off and xo = old.file and oo = old.off in
      fun _ ->
        let p = c xc oc in
        w xo oo;
        Array.unsafe_set preds da p;
        next
    | I.Cmov_sel { d; p; nv } ->
      let pa = match p with I.Sacc a -> a | _ -> assert false in
      let op = acc_off pa and w = dst_from t d in
      let nv = src_loc t nv in
      let xn = nv.file and on = nv.off in
      fun _ ->
        if Array.unsafe_get preds pa then w xn on else w accs op;
        next
    | I.Load { width; signed; d; base; disp } -> (
      let mem = t.interp.mem and bytes = I.bytes_of_width width in
      let base = src_loc t base in
      match dst_shape t d with
      | W_gpr g -> Exec.load_op mem ~bytes ~signed ~base ~disp ~next g
      | W_acc (acc, g) ->
        let ld = Exec.load_into ~bytes ~signed and amask = bytes - 1 in
        let xb = base.file and ib = base.off in
        let od = acc lsl 3 and xg = g.file and og = g.off in
        fun _ ->
          let addr = Exec.ea_of_cell xb ib disp in
          if addr land amask <> 0 then Exec.ret_fault
          else (
            match ld mem addr accs od with
            | () ->
              Array.unsafe_set preds acc false;
              Cell.set xg og (Cell.get accs od);
              next
            | exception Memory.Fault _ -> Exec.ret_fault))
    | I.Store { width; value; base; disp } ->
      Exec.store_op t.interp.mem ~bytes:(I.bytes_of_width width)
        ~value:(src_loc t value) ~base:(src_loc t base) ~disp ~next
    | I.Copy_to_gpr { g; a } ->
      Exec.copy_op ~src:(src_loc t (I.Sacc a)) ~dst:(gpr_wloc t g) ~next
    | I.Copy_from_gpr { d; g } ->
      let w = dst_from t d and src = gpr_loc t g in
      let xs = src.file and os = src.off in
      fun _ ->
        w xs os;
        next
    | I.Lta { d; value } ->
      let w = dst_from t d and c = Cell.const value in
      fun _ ->
        w c 0;
        next
    | I.Br { target } ->
      check_static target;
      Exec.br_op (Tcache.Acc.frag_of_entry tc target) target
    | I.Bc { cond; v; target } ->
      check_static target;
      Exec.bc_op (Tcache.Acc.frag_of_entry tc target) cond (src_loc t v)
        ~target ~next
    | I.Jmp_ind { v } -> Exec.jump_op (src_loc t v)
    | I.Set_vbase { vaddr } ->
      fun t ->
        t.vbase <- vaddr;
        next
    | I.Push_dras { g; v_ret; i_ret } ->
      Exec.push_dras_op t.ctx.cfg.chaining (gpr_wloc t g) ~v_ret ~i_ret ~next
    | I.Ret_dras { v } -> Exec.ret_dras_op (src_loc t v) ~next
    | I.Call_xlate { exit_id } -> (
      let code = Exec.ret_exit exit_id in
      (* architected values still in accumulators (PAL exits) *)
      match Tcache.Acc.pei_at tc s with
      | Some pei ->
        let map = pei.Tcache.acc_map in
        fun t ->
          Array.iter (acc_to_arch t) map;
          code
      | None -> fun _ -> code)
    | I.Call_xlate_cond { cond; v; exit_id } ->
      Exec.exit_cond_op cond (src_loc t v) ~exit_id ~next

(* ---------- event facts ---------- *)

let ea (t : engine) s =
  match Tcache.Acc.get t.ctx.tc s with
  | I.Load { base; disp; _ } | I.Store { base; disp; _ } ->
    (src_int t base + disp) land Alpha.Interp.addr_mask
  | _ -> 0

(* A conditional branch writes nothing, so its condition cell still holds
   the value the op tested; a conditional exit is taken when it exits. *)
let taken (t : engine) res : I.t -> bool = function
  | Br _ | Jmp_ind _ -> true
  | Bc { cond; v = Sacc a; _ } ->
    Alpha.Insn.cond_cell cond t.regs.accs (acc_off a)
  | Bc { cond; v = Sgpr g; _ } ->
    Alpha.Insn.cond_cell cond (gpr_file t g) (gpr_off g)
  | Bc { cond; v = Simm v; _ } -> Alpha.Insn.cond_true cond v
  | Ret_dras _ -> res = Exec.ret_dynamic
  | Call_xlate_cond _ -> res < 0
  | _ -> false

let event (t : engine) s ~res ~ea ~alpha ~target =
  let tc = t.ctx.tc in
  let i = Tcache.Acc.get tc s in
  Accisa.Trace.ev ~dras_hit:(res = Exec.ret_dynamic)
    ~strand_start:(Tcache.Acc.starts_strand tc s)
    ~alpha_count:alpha ~pc:(Tcache.Acc.addr_of tc s) ~ea
    ~taken:(taken t res i) ~target i

include Exec.Make (struct
  type ctx = Translate.ctx
  type nonrec regs = regs

  module Tc = Tcache.Acc

  let tc (c : ctx) = c.tc
  let exits (c : ctx) = c.exits
  let slot_alpha (c : ctx) = c.slot_alpha
  let slot_class (c : ctx) = c.slot_class

  let regs () =
    {
      scratch = Cell.create 32;
      accs = Cell.create n_accs;
      preds = Array.make n_accs false;
    }

  let compile = compile
  let ea = ea
  let event = event
  let repair = apply_pei_map

  (* The dispatch argument register holds the dynamic target V-address
     when the dispatch code misses. *)
  let dispatch_target t =
    let g = Translate.vr_arg in
    Int64.to_int (Cell.get (gpr_file t g) (gpr_off g))
end)
