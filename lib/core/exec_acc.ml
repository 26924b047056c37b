module Memory = Machine.Memory
module I = Accisa.Insn

(* The accumulator-ISA backend of {!Exec}: accumulators, their predicate
   flags and the VM scratch registers, the slot compiler and the
   instrumented step for {!Accisa.Insn.t}, and PEI repair that writes
   architected values still living only in accumulators back to the
   register file. *)

type regs = {
  scratch : int64 array; (* VM registers 32..63 *)
  accs : int64 array;
  preds : bool array; (* conditional-move predicate flag per accumulator *)
}

type engine = (Translate.ctx, regs) Exec.t

let get_g (t : engine) g =
  if g < 32 then Alpha.Interp.get t.interp g else t.regs.scratch.(g - 32)

let set_g (t : engine) g v =
  if g < 32 then Alpha.Interp.set t.interp g v
  else t.regs.scratch.(g - 32) <- v

let src_val (t : engine) : I.src -> int64 = function
  | Sacc a -> t.regs.accs.(a)
  | Sgpr g -> get_g t g
  | Simm v -> v

let write_dst (t : engine) (d : I.dst) v =
  if d.dacc >= 0 then begin
    t.regs.accs.(d.dacc) <- v;
    t.regs.preds.(d.dacc) <- false
  end;
  match d.gdst with Some g -> set_g t g v | None -> ()

(* Apply the PEI-table accumulator map: architected values still living only
   in accumulators are written back to the register file. *)
let apply_pei_map (t : engine) slot =
  match Tcache.Acc.pei_at t.ctx.tc slot with
  | Some pei ->
    Array.iter
      (fun (a, r) -> Alpha.Interp.set t.interp r t.regs.accs.(a))
      pei.Tcache.acc_map;
    Some pei.pei_v_pc
  | None -> None

(* ---------- threaded-code engine: slot compilation ---------- *)

(* Compile-time destination shapes (operands are {!Exec.loc}s): every
   destination is one of four store shapes, so the specialized closures
   built from them touch no variants and allocate nothing at run time. *)
type wshape =
  | W_acc of int (* accumulator only *)
  | W_acc_gpr of int * int64 array * int (* accumulator + embedded GPR *)
  | W_gpr of int64 array * int (* GPR only *)
  | W_discard (* r31 or no destination at all *)

let src_loc (t : engine) : I.src -> Exec.loc = function
  | Sacc a ->
    if a < 0 || a >= Array.length t.regs.accs then
      invalid_arg "exec_acc: accumulator out of range";
    L_arr (t.regs.accs, a)
  | Sgpr g ->
    if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
    if g = Alpha.Reg.zero then L_const 0L
    else if g < 32 then L_arr (t.interp.regs, g)
    else L_arr (t.regs.scratch, g - 32)
  | Simm v -> L_const v

(* GPR write cell; [None] when the write is architecturally discarded. *)
let gpr_loc (t : engine) g =
  if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
  if g = Alpha.Reg.zero then None
  else if g < 32 then Some (t.interp.regs, g)
  else Some (t.regs.scratch, g - 32)

let dst_shape (t : engine) (d : I.dst) =
  let acc = d.dacc in
  let gpr = Option.bind d.gdst (gpr_loc t) in
  if acc >= 0 then begin
    if acc >= Array.length t.regs.accs then
      invalid_arg "exec_acc: accumulator out of range";
    match gpr with
    | Some (x, i) -> W_acc_gpr (acc, x, i)
    | None -> W_acc acc
  end
  else match gpr with Some (x, i) -> W_gpr (x, i) | None -> W_discard

(* Closure forms of the shapes, for the generic (cold-ish) arms. *)
let src_fn t s = Exec.loc_fn (src_loc t s)

let gpr_set_fn t g : (int64 -> unit) option =
  match gpr_loc t g with
  | Some (x, i) -> Some (fun v -> Array.unsafe_set x i v)
  | None -> None

let dst_fn (t : engine) (d : I.dst) : int64 -> unit =
  match dst_shape t d with
  | W_acc acc ->
    let accs = t.regs.accs and preds = t.regs.preds in
    fun v ->
      Array.unsafe_set accs acc v;
      Array.unsafe_set preds acc false
  | W_acc_gpr (acc, x, i) ->
    let accs = t.regs.accs and preds = t.regs.preds in
    fun v ->
      Array.unsafe_set accs acc v;
      Array.unsafe_set preds acc false;
      Array.unsafe_set x i v
  | W_gpr (x, i) -> fun v -> Array.unsafe_set x i v
  | W_discard -> fun _ -> ()

let compile (t : engine) s : (Translate.ctx, regs) Exec.op =
  let tc = t.ctx.tc in
  let insn = Tcache.Acc.get tc s in
  let next = s + 1 in
  let check_static =
    Exec.check_static ~n_slots:(Tcache.Acc.n_slots tc) ~slot:s
  in
  match insn with
    | I.Alu { op; d; a; b } -> (
      let f = Alpha.Insn.eval_fn op in
      let accs = t.regs.accs and preds = t.regs.preds in
      (* fully flattened: one specialized closure per (destination shape x
         operand shapes); the hot path is a handful of unchecked array
         accesses around the pre-matched operator *)
      match (dst_shape t d, src_loc t a, src_loc t b) with
      | W_acc acc, L_arr (xa, ia), L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set accs acc
            (f (Array.unsafe_get xa ia) (Array.unsafe_get xb ib));
          Array.unsafe_set preds acc false;
          next
      | W_acc acc, L_arr (xa, ia), L_const cb ->
        fun _ ->
          Array.unsafe_set accs acc (f (Array.unsafe_get xa ia) cb);
          Array.unsafe_set preds acc false;
          next
      | W_acc acc, L_const ca, L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set accs acc (f ca (Array.unsafe_get xb ib));
          Array.unsafe_set preds acc false;
          next
      | W_acc acc, L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          next
      | W_acc_gpr (acc, xd, id_), L_arr (xa, ia), L_arr (xb, ib) ->
        fun _ ->
          let v = f (Array.unsafe_get xa ia) (Array.unsafe_get xb ib) in
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_acc_gpr (acc, xd, id_), L_arr (xa, ia), L_const cb ->
        fun _ ->
          let v = f (Array.unsafe_get xa ia) cb in
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_acc_gpr (acc, xd, id_), L_const ca, L_arr (xb, ib) ->
        fun _ ->
          let v = f ca (Array.unsafe_get xb ib) in
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_acc_gpr (acc, xd, id_), L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_gpr (xd, id_), L_arr (xa, ia), L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set xd id_
            (f (Array.unsafe_get xa ia) (Array.unsafe_get xb ib));
          next
      | W_gpr (xd, id_), L_arr (xa, ia), L_const cb ->
        fun _ ->
          Array.unsafe_set xd id_ (f (Array.unsafe_get xa ia) cb);
          next
      | W_gpr (xd, id_), L_const ca, L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set xd id_ (f ca (Array.unsafe_get xb ib));
          next
      | W_gpr (xd, id_), L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set xd id_ v;
          next
      | W_discard, _, _ -> fun _ -> next)
    | I.Cmov_test { cond; d; cv; old } ->
      let c = Alpha.Insn.cond_fn cond in
      let gcv = src_fn t cv and gold = src_fn t old in
      let w = dst_fn t d in
      let da = d.dacc and preds = t.regs.preds in
      if da < 0 || da >= Array.length preds then
        invalid_arg "exec_acc: cmov-test without an accumulator destination";
      fun _ ->
        let p = c (gcv ()) in
        w (gold ());
        Array.unsafe_set preds da p;
        next
    | I.Cmov_sel { d; p; nv } ->
      let pa = match p with I.Sacc a -> a | _ -> assert false in
      if pa < 0 || pa >= Array.length t.regs.preds then
        invalid_arg "exec_acc: cmov-sel predicate out of range";
      let gnv = src_fn t nv in
      let w = dst_fn t d in
      let preds = t.regs.preds and accs = t.regs.accs in
      fun _ ->
        w
          (if Array.unsafe_get preds pa then gnv ()
           else Array.unsafe_get accs pa);
        next
    | I.Load { width; signed; d; base; disp } -> (
      let mem = t.interp.mem in
      let bytes = I.bytes_of_width width in
      let amask = bytes - 1 in
      let ld = Exec.load_fn ~bytes ~signed in
      let accs = t.regs.accs and preds = t.regs.preds in
      match (dst_shape t d, src_loc t base) with
      | W_acc acc, L_arr (xb, ib) ->
        fun _ ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp)
            land Alpha.Interp.addr_mask
          in
          if addr land amask <> 0 then Exec.ret_fault
          else (
            match ld mem addr with
            | v ->
              Array.unsafe_set accs acc v;
              Array.unsafe_set preds acc false;
              next
            | exception Memory.Fault _ -> Exec.ret_fault)
      | W_acc_gpr (acc, xd, id_), L_arr (xb, ib) ->
        fun _ ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp)
            land Alpha.Interp.addr_mask
          in
          if addr land amask <> 0 then Exec.ret_fault
          else (
            match ld mem addr with
            | v ->
              Array.unsafe_set accs acc v;
              Array.unsafe_set preds acc false;
              Array.unsafe_set xd id_ v;
              next
            | exception Memory.Fault _ -> Exec.ret_fault)
      | W_gpr (xd, id_), L_arr (xb, ib) ->
        fun _ ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp)
            land Alpha.Interp.addr_mask
          in
          if addr land amask <> 0 then Exec.ret_fault
          else (
            match ld mem addr with
            | v ->
              Array.unsafe_set xd id_ v;
              next
            | exception Memory.Fault _ -> Exec.ret_fault)
      | _, base ->
        (* constant base or discarded value *)
        Exec.load_op mem ~bytes ~signed ~base ~disp ~next (dst_fn t d))
    | I.Store { width; value; base; disp } ->
      Exec.store_op t.interp.mem ~bytes:(I.bytes_of_width width)
        ~value:(src_loc t value) ~base:(src_loc t base) ~disp ~next
    | I.Copy_to_gpr { g; a } ->
      if a < 0 || a >= Array.length t.regs.accs then
        invalid_arg "exec_acc: accumulator out of range";
      let accs = t.regs.accs in
      (match gpr_set_fn t g with
      | Some set ->
        fun _ ->
          set (Array.unsafe_get accs a);
          next
      | None -> fun _ -> next)
    | I.Copy_from_gpr { d; g } ->
      let gr = src_fn t (I.Sgpr g) in
      let w = dst_fn t d in
      fun _ ->
        w (gr ());
        next
    | I.Br { target } ->
      check_static target;
      Exec.br_op (Tcache.Acc.frag_of_entry tc target) target
    | I.Bc { cond; v; target } ->
      check_static target;
      Exec.bc_op
        (Tcache.Acc.frag_of_entry tc target)
        (Alpha.Insn.cond_fn cond) (src_loc t v) ~target ~next
    | I.Jmp_ind { v } ->
      let gv = src_fn t v in
      fun t -> Exec.jump t (Int64.to_int (gv ()))
    | I.Lta { d; value } ->
      let w = dst_fn t d in
      fun _ ->
        w value;
        next
    | I.Set_vbase { vaddr } ->
      fun t ->
        t.vbase <- vaddr;
        next
    | I.Push_dras { g; v_ret; i_ret } ->
      let set =
        match gpr_set_fn t g with Some f -> f | None -> fun _ -> ()
      in
      Exec.push_dras_op t.ctx.cfg.chaining set ~v_ret ~i_ret ~next
    | I.Ret_dras { v } ->
      let gv = src_fn t v in
      fun t -> Exec.ret_dras t ~v_actual:(Int64.to_int (gv ())) ~next
    | I.Call_xlate { exit_id } -> (
      let code = Exec.ret_exit exit_id in
      (* architected values still in accumulators (PAL exits) *)
      match Tcache.Acc.pei_at tc s with
      | Some pei ->
        let map = pei.Tcache.acc_map in
        fun t ->
          Array.iter
            (fun (a, r) -> Alpha.Interp.set t.interp r t.regs.accs.(a))
            map;
          code
      | None -> fun _ -> code)
    | I.Call_xlate_cond { cond; v; exit_id } ->
      Exec.exit_cond_op (Alpha.Insn.cond_fn cond) (src_fn t v) ~exit_id ~next

(* ---------- instrumented engine: one slot ---------- *)

let step (t : engine) s =
  let next = s + 1 in
  match Tcache.Acc.get t.ctx.tc s with
  | I.Alu { op; d; a; b } ->
    write_dst t d (Alpha.Insn.eval_op op (src_val t a) (src_val t b));
    next
  | I.Cmov_test { cond; d; cv; old } ->
    let p = Alpha.Insn.cond_true cond (src_val t cv) in
    write_dst t d (src_val t old);
    t.regs.preds.(d.dacc) <- p;
    next
  | I.Cmov_sel { d; p; nv } ->
    let pa = match p with I.Sacc a -> a | _ -> assert false in
    write_dst t d
      (if t.regs.preds.(pa) then src_val t nv else t.regs.accs.(pa));
    next
  | I.Load { width; signed; d; base; disp } ->
    let bytes = I.bytes_of_width width in
    let addr = Exec.ea_checked t ~bytes (src_val t base) disp in
    let ld = Exec.load_fn ~bytes ~signed in
    write_dst t d (ld t.interp.mem addr);
    next
  | I.Store { width; value; base; disp } ->
    let bytes = I.bytes_of_width width in
    let addr = Exec.ea_checked t ~bytes (src_val t base) disp in
    let st = Exec.store_fn ~bytes in
    st t.interp.mem addr (src_val t value);
    next
  | I.Copy_to_gpr { g; a } ->
    set_g t g t.regs.accs.(a);
    next
  | I.Copy_from_gpr { d; g } ->
    write_dst t d (get_g t g);
    next
  | I.Br { target } -> Exec.jump t target
  | I.Bc { cond; v; target } ->
    if Alpha.Insn.cond_true cond (src_val t v) then Exec.jump t target
    else next
  | I.Jmp_ind { v } -> Exec.jump t (Int64.to_int (src_val t v))
  | I.Lta { d; value } ->
    write_dst t d value;
    next
  | I.Set_vbase { vaddr } ->
    t.vbase <- vaddr;
    next
  | I.Push_dras { g; v_ret; i_ret } ->
    set_g t g (Int64.of_int v_ret);
    Exec.push_dras t t.ctx.cfg.chaining ~v_ret ~i_ret;
    next
  | I.Ret_dras { v } ->
    Exec.ret_dras t ~v_actual:(Int64.to_int (src_val t v)) ~next
  | I.Call_xlate { exit_id } ->
    (* architected values still in accumulators (PAL exits) *)
    ignore (apply_pei_map t s);
    Exec.ret_exit exit_id
  | I.Call_xlate_cond { cond; v; exit_id } ->
    if Alpha.Insn.cond_true cond (src_val t v) then begin
      t.taken <- true;
      Exec.ret_exit exit_id
    end
    else next

include Exec.Make (struct
  type ctx = Translate.ctx
  type nonrec regs = regs

  module Tc = Tcache.Acc

  let tc (c : ctx) = c.tc
  let cfg (c : ctx) = c.cfg
  let exits (c : ctx) = c.exits
  let slot_alpha (c : ctx) = c.slot_alpha
  let slot_class (c : ctx) = c.slot_class

  let regs () =
    {
      scratch = Array.make 32 0L;
      accs = Array.make 8 0L;
      preds = Array.make 8 false;
    }

  let compile = compile
  let step = step

  let event (t : engine) s ~alpha ~target =
    let tc = t.ctx.tc in
    Accisa.Trace.ev ~dras_hit:t.dras_hit
      ~strand_start:(Tcache.Acc.starts_strand tc s)
      ~alpha_count:alpha ~pc:(Tcache.Acc.addr_of tc s) ~ea:t.ea ~taken:t.taken
      ~target (Tcache.Acc.get tc s)

  let repair = apply_pei_map

  (* The dispatch argument register holds the dynamic target V-address
     when the dispatch code misses. *)
  let dispatch_target t = Int64.to_int (get_g t Translate.vr_arg)
end)
