module Ev = Machine.Ev

(* Conversion from executed Alpha instructions to the ISA-agnostic
   {!Machine.Ev.t} events consumed by the timing models.

   Used both for native ("original") Alpha runs and for straightened-Alpha
   translated code; in the latter case the caller passes the translation-
   cache byte address as [pc]. Producers build one event per static
   instruction and rewrite its dynamic facts ([ea], [taken], [target], a
   dual-RAS return's outcome) on every commit. *)

let cls_of (insn : Insn.t) : Ev.cls =
  match insn with
  | Mem ((Ldq | Ldl | Ldwu | Ldbu), _, _, _) -> Load
  | Mem ((Stq | Stl | Stw | Stb), _, _, _) -> Store
  | Mem ((Lda | Ldah), _, _, _) -> Alu
  | Opr ((Mull | Mulq | Umulh), _, _, _) -> Mul
  | Opr _ -> Alu
  | Br (ra, _) -> if ra = Reg.zero then Jump else Call
  | Bsr _ -> Call
  | Bc _ -> Cond_br
  | Jump (Ret, _, _) -> Ret
  | Jump (Jsr, _, _) -> Call
  | Jump (Jmp, _, _) -> Jump
  | Call_pal _ -> Alu
  | Lta _ -> Alu
  | Push_dras _ -> Alu
  | Ret_dras _ -> Ret
  | Call_xlate _ -> Jump
  | Call_xlate_cond _ -> Cond_br
  | Set_vbase _ -> Alu

let pred_of (insn : Insn.t) : Ev.pred =
  match insn with
  | Bc _ | Call_xlate_cond _ -> P_cond
  | Br (ra, _) -> if ra = Reg.zero then P_direct else P_ras_call
  | Bsr _ -> P_ras_call
  | Jump (Ret, _, _) -> P_ras_ret
  | Jump (Jsr, _, _) -> P_ras_call_ind
  | Jump (Jmp, _, _) -> P_indirect
  | Push_dras _ -> P_dras_call
  | Ret_dras _ -> Ev.p_dras_miss (* the outcome is a dynamic fact *)
  | Call_xlate _ -> P_direct
  | _ -> Not_control

(* The event template of the instruction [insn] at [pc], its dynamic facts
   zero. Register tokens are the register numbers: events from translated
   code use the same mapping (architected registers 0..31, VM scratch
   32..63). *)
let ev_of_exec ?(alpha_count = 1) ~pc (insn : Insn.t) =
  let srcs = Insn.srcs insn in
  let nth n = match List.nth_opt srcs n with Some r when r <> Reg.zero -> r | _ -> -1 in
  let dst = match Insn.dest insn with Some r when r <> Reg.zero -> r | _ -> -1 in
  {
    Ev.pc;
    size = 4;
    cls = cls_of insn;
    src1 = nth 0;
    src2 = nth 1;
    src3 = nth 2;
    dst;
    dst2 = -1;
    lazy_dst2 = false;
    acc = -1;
    strand_start = false;
    ea = 0;
    taken = false;
    target = 0;
    pred = pred_of insn;
    alpha_count;
  }
