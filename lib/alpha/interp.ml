module Memory = Machine.Memory
module Ev = Machine.Ev
module Cell = Machine.Cell

(* Alpha functional interpreter with precise trap semantics.

   This is both the reference executor (architected results that every other
   execution mode must match) and the interpretation stage of the DBT system.
   One [step] executes exactly one instruction and reports what happened; the
   DBT profiler and superblock builder drive it step by step, while [run]
   drives it to completion.

   PALcode provides a minimal deterministic "OS": HALT, PUTC and PUTINT. *)

type trap =
  | Mem_fault of { pc : int; addr : int; is_store : bool }
  | Unaligned of { pc : int; addr : int; width : int }
  | Illegal of { pc : int }

let pp_trap fmt = function
  | Mem_fault { pc; addr; is_store } ->
    Format.fprintf fmt "memory fault at pc=%#x addr=%#x (%s)" pc addr
      (if is_store then "store" else "load")
  | Unaligned { pc; addr; width } ->
    Format.fprintf fmt "unaligned %d-byte access at pc=%#x addr=%#x" width pc addr
  | Illegal { pc } -> Format.fprintf fmt "illegal instruction at pc=%#x" pc

(* PAL function codes of the simulated system. *)
let pal_halt = 0
let pal_putc = 1
let pal_putint = 2

(* Register file layout, in cells (see {!Machine.Cell}): cells 0-31 are
   the architected registers, and r31's cell is never written, so it always
   reads zero. Cell 32 holds an operate instruction's literal, and cell 33
   takes writes to r31, which are discarded. Engines resolve a register to
   its read cell ([r lsl 3]) or write cell ({!wr_off}) once and then move
   values cell to cell, unboxed. *)
let lit_cell = 32
let discard_cell = 33
let n_cells = 34

(* Byte offset of the cell a write to register [r] lands in. *)
let wr_off r = if r = Reg.zero then discard_cell lsl 3 else r lsl 3

type t = {
  regs : Cell.t; (* register cells, laid out as above *)
  mutable pc : int;
  mem : Memory.t;
  out : Buffer.t;
  mutable icount : int; (* dynamic V-ISA instructions executed *)
  code : Insn.t array; (* predecoded text section *)
  text_base : int;
  text_limit : int;
}

type exec_info = {
  xpc : int; (* address of the executed instruction *)
  insn : Insn.t;
  taken : bool; (* control transfer taken (false for non-control) *)
  next_pc : int;
  ea : int; (* effective address, 0 for non-memory *)
}

type step_result = Step of exec_info | Halted of int | Trapped of trap

let create prog =
  let mem = Memory.create () in
  Program.load prog mem;
  let code = Program.predecode prog in
  let regs = Cell.create n_cells in
  Cell.set regs (Reg.sp lsl 3) (Int64.of_int Program.stack_top);
  {
    regs;
    pc = prog.entry;
    mem;
    out = Buffer.create 256;
    icount = 0;
    code;
    text_base = prog.text.base;
    text_limit = prog.text.base + (4 * Array.length code);
  }

(* Boxed accessors, for code off the per-instruction path (the oracle,
   dispatch-miss targets, tests). *)
let get t r =
  if r < 0 || r > Reg.zero then invalid_arg "Interp.get: register";
  Cell.get t.regs (r lsl 3)

let set t r v =
  if r < 0 || r > Reg.zero then invalid_arg "Interp.set: register";
  Cell.set t.regs (wr_off r) v

let output t = Buffer.contents t.out

let in_text t pc = pc >= t.text_base && pc < t.text_limit && pc land 3 = 0

let addr_mask = 0x3fffffffffff (* keep effective addresses positive ints *)

let ea_of t rb disp =
  (Int64.to_int (Cell.get t.regs (rb lsl 3)) + disp) land addr_mask

let align_ok addr width = addr land (width - 1) = 0

let fall_through pc insn =
  Step { xpc = pc; insn; taken = false; next_pc = pc + 4; ea = 0 }

let taken_to pc insn target =
  Step { xpc = pc; insn; taken = true; next_pc = target; ea = 0 }

(* Execute the instruction [insn] sitting at [pc] against the architected
   state, returning the outcome. Register fields are the decoder's 5-bit
   ones, so every cell offset below stays inside the file. *)
let exec_insn t pc (insn : Insn.t) : step_result =
  let regs = t.regs in
  match insn with
  | Mem (((Lda | Ldah) as op), ra, disp, rb) ->
    let d = match op with Ldah -> disp * 65536 | _ -> disp in
    Cell.set regs (wr_off ra)
      (Int64.add (Cell.get regs (rb lsl 3)) (Int64.of_int d));
    fall_through pc insn
  | Mem (op, ra, disp, rb) -> (
    let addr = ea_of t rb disp in
    let width =
      match op with
      | Ldq | Stq -> 8
      | Ldl | Stl -> 4
      | Ldwu | Stw -> 2
      | _ -> 1
    in
    if not (align_ok addr width) then
      Trapped (Unaligned { pc; addr; width })
    else
      let m = t.mem and od = wr_off ra and v = Cell.get regs (ra lsl 3) in
      try
        (match op with
        | Ldq -> Memory.get_i64_into m addr regs od
        | Ldl ->
          Cell.set regs od
            (Int64.of_int32 (Int32.of_int (Memory.get_u32 m addr)))
        | Ldwu -> Cell.set regs od (Int64.of_int (Memory.get_u16 m addr))
        | Ldbu -> Cell.set regs od (Int64.of_int (Memory.get_u8 m addr))
        | Stq -> Memory.set_i64_from m addr regs (ra lsl 3)
        | Stl -> Memory.set_u32 m addr (Int64.to_int v land 0xffffffff)
        | Stw -> Memory.set_u16 m addr (Int64.to_int v land 0xffff)
        | Stb -> Memory.set_u8 m addr (Int64.to_int v land 0xff)
        | Lda | Ldah -> assert false);
        Step { xpc = pc; insn; taken = false; next_pc = pc + 4; ea = addr }
      with Memory.Fault a ->
        Trapped (Mem_fault { pc; addr = a; is_store = Insn.is_store insn }))
  | Opr (op, ra, operand, rc) ->
    let ob =
      match operand with
      | Insn.Rb r -> r lsl 3
      | Imm i ->
        Cell.set regs (lit_cell lsl 3) (Int64.of_int i);
        lit_cell lsl 3
    in
    if Insn.is_cmov insn then begin
      let c = Insn.cond_cell (Insn.cmov_cond op) in
      if c regs (ra lsl 3) then Cell.set regs (wr_off rc) (Cell.get regs ob)
    end
    else begin
      let f = Insn.eval_into op in
      f regs (wr_off rc) regs (ra lsl 3) regs ob
    end;
    fall_through pc insn
  | Br (ra, disp) | Bsr (ra, disp) ->
    Cell.set regs (wr_off ra) (Int64.of_int (pc + 4));
    taken_to pc insn (pc + 4 + (4 * disp))
  | Bc (c, ra, disp) ->
    let c = Insn.cond_cell c in
    if c regs (ra lsl 3) then taken_to pc insn (pc + 4 + (4 * disp))
    else fall_through pc insn
  | Jump (_, ra, rb) ->
    let target =
      Int64.to_int (Cell.get regs (rb lsl 3)) land addr_mask land lnot 3
    in
    Cell.set regs (wr_off ra) (Int64.of_int (pc + 4));
    taken_to pc insn target
  | Call_pal f -> (
    let arg0 = Cell.get regs (Reg.arg 0 lsl 3) in
    match f with
    | _ when f = pal_halt ->
      Halted (Int64.to_int (Cell.get regs (Reg.v0 lsl 3)) land 0xff)
    | _ when f = pal_putc ->
      Buffer.add_char t.out (Char.chr (Int64.to_int arg0 land 0xff));
      fall_through pc insn
    | _ when f = pal_putint ->
      Buffer.add_string t.out (Int64.to_string arg0);
      Buffer.add_char t.out '\n';
      fall_through pc insn
    | _ -> Trapped (Illegal { pc }))
  | Lta _ | Push_dras _ | Ret_dras _ | Call_xlate _ | Call_xlate_cond _
  | Set_vbase _ ->
    (* VM extensions never appear in V-ISA memory *)
    Trapped (Illegal { pc })

(* Execute one instruction at the current pc, advancing the state. *)
let step t : step_result =
  let pc = t.pc in
  if not (in_text t pc) then Trapped (Illegal { pc })
  else
    match exec_insn t pc t.code.((pc - t.text_base) lsr 2) with
    | Step i as r ->
      t.icount <- t.icount + 1;
      t.pc <- i.next_pc;
      r
    | r -> r

type outcome = Exit of int | Fault of trap | Out_of_fuel

(* Run to completion (or [fuel] instructions). *)
let run ?(fuel = max_int) t =
  let rec go n =
    if n <= 0 then Out_of_fuel
    else
      match step t with
      | Step _ -> go (n - 1)
      | Halted c -> Exit c
      | Trapped tr -> Fault tr
  in
  go fuel

(* Run while emitting one {!Machine.Ev.t} per committed instruction — the
   trace source for the "original" out-of-order superscalar simulations.
   Each text word gets one event template, built the first time it
   commits; later commits rewrite only its dynamic facts, so the sink must
   not keep the event past its call. *)
let run_ev ?(fuel = max_int) t ~(sink : Ev.t -> unit) =
  let evs = Array.make (Array.length t.code) Ev.no_template in
  let rec go n =
    if n <= 0 then Out_of_fuel
    else
      match step t with
      | Halted c -> Exit c
      | Trapped tr -> Fault tr
      | Step i ->
        let k = (i.xpc - t.text_base) lsr 2 in
        let ev = evs.(k) in
        let ev =
          if ev != Ev.no_template then ev
          else begin
            let e = Trace.ev_of_exec ~pc:i.xpc i.insn in
            evs.(k) <- e;
            e
          end
        in
        ev.ea <- i.ea;
        ev.taken <- i.taken;
        ev.target <- i.next_pc;
        sink ev;
        go (n - 1)
  in
  go fuel

(* FNV-1a hash over the architected registers; used with the memory checksum
   to compare final states across execution modes. AT (r28) and GP (r29)
   are excluded: the OSF ABI reserves them between calls and the
   code-straightening DBT borrows them for chaining code, so no conforming
   guest holds live values there. *)
let reg_checksum t =
  let h = ref 0xcbf29ce484222325L in
  for r = 0 to 30 do
    if r <> Reg.at && r <> Reg.gp then begin
      h := Int64.logxor !h (Cell.get t.regs (r lsl 3));
      h := Int64.mul !h 0x100000001b3L
    end
  done;
  !h
