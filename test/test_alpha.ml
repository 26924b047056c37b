(* Tests for the Alpha substrate: encoder/decoder, assembler, interpreter. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- generators ---------- *)

let gen_reg = QCheck.Gen.int_bound 31

let all_mem_ops =
  [ Alpha.Insn.Ldq; Ldl; Ldwu; Ldbu; Stq; Stl; Stw; Stb; Lda; Ldah ]

let all_op3 =
  [ Alpha.Insn.Addl; Addq; Subl; Subq; S4addl; S4addq; S8addl; S8addq;
    S4subl; S4subq; S8subl; S8subq; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule;
    Cmpbge; And_; Bic; Bis; Ornot; Xor; Eqv; Sll; Srl; Sra; Extbl; Extwl;
    Extll; Extql; Extwh; Extlh; Extqh; Insbl; Inswl; Insll; Insql; Mskbl;
    Mskwl; Mskll; Mskql; Zap; Zapnot; Mull; Mulq; Umulh; Sextb; Sextw;
    Ctpop; Ctlz; Cttz; Cmoveq; Cmovne; Cmovlt; Cmovge; Cmovle; Cmovgt;
    Cmovlbs; Cmovlbc ]

let all_conds = [ Alpha.Insn.Eq; Ne; Lt; Ge; Le; Gt; Lbc; Lbs ]

(* Random conventional (encodable) instruction. *)
let gen_insn : Alpha.Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Alpha.Insn in
  frequency
    [
      ( 3,
        let* op = oneofl all_mem_ops in
        let* ra = gen_reg and* rb = gen_reg in
        let* disp = int_range (-32768) 32767 in
        return (Mem (op, ra, disp, rb)) );
      ( 4,
        let* op = oneofl all_op3 in
        let* ra = gen_reg and* rc = gen_reg in
        let* operand =
          oneof [ map (fun r -> Rb r) gen_reg; map (fun i -> Imm i) (int_bound 255) ]
        in
        let ra =
          match op with Sextb | Sextw | Ctpop | Ctlz | Cttz -> 31 | _ -> ra
        in
        return (Opr (op, ra, operand, rc)) );
      ( 1,
        let* ra = gen_reg and* disp = int_range (-(1 lsl 20)) ((1 lsl 20) - 1) in
        oneofl [ Br (ra, disp); Bsr (ra, disp) ] );
      ( 1,
        let* c = oneofl all_conds
        and* ra = gen_reg
        and* disp = int_range (-(1 lsl 20)) ((1 lsl 20) - 1) in
        return (Bc (c, ra, disp)) );
      ( 1,
        let* k = oneofl [ Jmp; Jsr; Ret ] and* ra = gen_reg and* rb = gen_reg in
        return (Jump (k, ra, rb)) );
      (1, map (fun f -> Call_pal f) (int_bound 0x3ff));
    ]

let arb_insn = QCheck.make ~print:Alpha.Disasm.to_string gen_insn

(* ---------- encode/decode ---------- *)

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode . decode = id" ~count:2000 arb_insn (fun i ->
      match Alpha.Decode.decode (Alpha.Encode.encode i) with
      | Ok i' -> i = i'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.reason)

let prop_encode_32bit =
  QCheck.Test.make ~name:"encodings fit in 32 bits" ~count:1000 arb_insn
    (fun i ->
      let w = Alpha.Encode.encode i in
      w >= 0 && w < 1 lsl 32)

let test_known_encodings () =
  (* cross-checked against the Alpha Architecture Handbook *)
  let cases =
    [
      (* ldq r3, 8(r16) : opcode 29, ra=3, rb=16, disp=8 *)
      (Alpha.Insn.Mem (Ldq, 3, 8, 16), 0xa4700008);
      (* addq r1, r2, r3 : opcode 10, func 20 *)
      (Alpha.Insn.Opr (Addq, 1, Rb 2, 3), 0x40220403);
      (* addq r1, #255, r3 *)
      (Alpha.Insn.Opr (Addq, 1, Imm 255, 3), 0x403ff403);
      (* bne r17, +1 : opcode 3d *)
      (Alpha.Insn.Bc (Ne, 17, 1), 0xf6200001);
      (* ret zero, (ra) : opcode 1a, hint 2 *)
      (Alpha.Insn.Jump (Ret, 31, 26), 0x6bfa8000);
    ]
  in
  List.iter
    (fun (insn, want) ->
      check Alcotest.int (Alpha.Disasm.to_string insn) want
        (Alpha.Encode.encode insn))
    cases

let test_vm_insn_unencodable () =
  Alcotest.check_raises "lta rejected"
    (Alpha.Encode.Unencodable "VM extension instruction has no V-ISA encoding: lta")
    (fun () -> ignore (Alpha.Encode.encode (Alpha.Insn.Lta (1, 0x1000))))

let prop_disasm_reassembles =
  (* Disassembled operate/memory instructions re-assemble to the same word. *)
  QCheck.Test.make ~name:"disasm output reassembles" ~count:500
    (QCheck.make ~print:Alpha.Disasm.to_string
       QCheck.Gen.(
         let open Alpha.Insn in
         let* op = oneofl all_op3 in
         let* ra = gen_reg and* rc = gen_reg in
         let* operand =
           oneof [ map (fun r -> Rb r) gen_reg; map (fun i -> Imm i) (int_bound 255) ]
         in
         (* unary operates canonically encode ra = r31 *)
         let ra =
           match op with Sextb | Sextw | Ctpop | Ctlz | Cttz -> 31 | _ -> ra
         in
         return (Opr (op, ra, operand, rc))))
    (fun i ->
      let src = Printf.sprintf " .text\nx:\n %s\n" (Alpha.Disasm.to_string i) in
      let prog = Alpha.Assembler.assemble src in
      let code = Alpha.Program.predecode prog in
      Array.length code = 1 && code.(0) = i)

(* ---------- assembler ---------- *)

let assemble_run ?(fuel = 1_000_000) src =
  let prog = Alpha.Assembler.assemble src in
  let st = Alpha.Interp.create prog in
  let outcome = Alpha.Interp.run ~fuel st in
  (st, outcome)

let test_asm_basic_program () =
  let st, outcome =
    assemble_run
      {|
      .text
  _start:
      ldiq  t0, 40
      addq  t0, 2, v0
      call_pal 0        ; halt with v0
      |}
  in
  check Alcotest.bool "halted 42" true (outcome = Alpha.Interp.Exit 42);
  check Alcotest.int64 "t0" 40L (Alpha.Interp.get st 1)

let test_asm_labels_and_branches () =
  let _, outcome =
    assemble_run
      {|
      .text
  _start:
      clr   t0
      ldiq  t1, 10
  loop:
      addq  t0, t1, t0
      subq  t1, 1, t1
      bne   t1, loop
      mov   t0, v0
      call_pal 0
      |}
  in
  (* 10+9+...+1 = 55 *)
  check Alcotest.bool "sum 55" true (outcome = Alpha.Interp.Exit 55)

let test_asm_data_section () =
  let st, outcome =
    assemble_run
      {|
      .text
  _start:
      la    t0, table
      ldq   t1, 8(t0)
      ldq   t2, 16(t0)
      addq  t1, t2, v0
      la    t3, msg
      ldbu  t4, 0(t3)
      call_pal 0
      .data
      .align 8
  table:
      .quad 1, 20, 22, 3
  msg:
      .asciz "Hi"
      |}
  in
  check Alcotest.bool "sum of table" true (outcome = Alpha.Interp.Exit 42);
  check Alcotest.int64 "'H' loaded" (Int64.of_int (Char.code 'H'))
    (Alpha.Interp.get st 5)

let test_asm_call_ret () =
  let _, outcome =
    assemble_run
      {|
      .text
  _start:
      ldiq  a0, 5
      bsr   ra, double
      mov   v0, a0
      bsr   ra, double
      call_pal 0
  double:
      addq  a0, a0, v0
      ret
      |}
  in
  check Alcotest.bool "double twice" true (outcome = Alpha.Interp.Exit 20)

let test_asm_jump_table () =
  let _, outcome =
    assemble_run
      {|
      .text
  _start:
      ldiq  t0, 2          ; selector
      la    t1, jtab
      s8addq t0, t1, t1
      ldq   t2, 0(t1)
      jmp   (t2)
  case0:
      ldiq v0, 10
      br   done
  case1:
      ldiq v0, 20
      br   done
  case2:
      ldiq v0, 30
      br   done
  done:
      call_pal 0
      .data
      .align 8
  jtab:
      .quad case0, case1, case2
      |}
  in
  check Alcotest.bool "case2 selected" true (outcome = Alpha.Interp.Exit 30)

let test_asm_duplicate_label_rejected () =
  match Alpha.Assembler.assemble ".text\nx:\nx:\n" with
  | exception Alpha.Assembler.Error _ -> ()
  | _ -> Alcotest.fail "expected duplicate-label error"

let test_asm_undefined_symbol_rejected () =
  match Alpha.Assembler.assemble " .text\n_start:\n br nowhere\n" with
  | exception Alpha.Assembler.Error _ -> ()
  | _ -> Alcotest.fail "expected undefined-symbol error"

let prop_ldiq_materializes =
  QCheck.Test.make ~name:"ldiq materializes any 64-bit value" ~count:500
    QCheck.int64 (fun v ->
      let src =
        Printf.sprintf " .text\n_start:\n ldiq t0, %Ld\n call_pal 0\n" v
      in
      let st, outcome = assemble_run src in
      outcome = Alpha.Interp.Exit 0 && Int64.equal (Alpha.Interp.get st 1) v)

(* ---------- interpreter semantics ---------- *)

let run_opr op a b =
  (* build a 3-instruction program computing [op a b] into v0 *)
  let src =
    Printf.sprintf
      " .text\n_start:\n ldiq t0, %Ld\n ldiq t1, %Ld\n %s t0, t1, v0\n call_pal 0\n"
      a b op
  in
  let st, outcome = assemble_run src in
  check Alcotest.bool (op ^ " halts") true (outcome = Alpha.Interp.Exit (Int64.to_int (Int64.logand (Alpha.Interp.get st 0) 0xffL)));
  Alpha.Interp.get st 0

let test_interp_arith () =
  check Alcotest.int64 "addq" 7L (run_opr "addq" 3L 4L);
  check Alcotest.int64 "subq" (-1L) (run_opr "subq" 3L 4L);
  check Alcotest.int64 "s8addq" 28L (run_opr "s8addq" 3L 4L);
  check Alcotest.int64 "mulq" 12L (run_opr "mulq" 3L 4L);
  check Alcotest.int64 "addl wraps" (Int64.of_int32 (Int32.add Int32.max_int 1l))
    (run_opr "addl" (Int64.of_int32 Int32.max_int) 1L);
  check Alcotest.int64 "umulh" 1L (run_opr "umulh" 0x8000000000000000L 2L)

let test_interp_compare () =
  check Alcotest.int64 "cmplt signed" 1L (run_opr "cmplt" (-1L) 0L);
  check Alcotest.int64 "cmpult unsigned" 0L (run_opr "cmpult" (-1L) 0L);
  check Alcotest.int64 "cmpeq" 1L (run_opr "cmpeq" 5L 5L);
  check Alcotest.int64 "cmple" 1L (run_opr "cmple" 5L 5L);
  check Alcotest.int64 "cmpule" 1L (run_opr "cmpule" 1L 2L)

let test_interp_logic_shift () =
  check Alcotest.int64 "and" 4L (run_opr "and" 6L 12L);
  check Alcotest.int64 "bis" 14L (run_opr "bis" 6L 12L);
  check Alcotest.int64 "xor" 10L (run_opr "xor" 6L 12L);
  check Alcotest.int64 "bic" 2L (run_opr "bic" 6L 12L);
  check Alcotest.int64 "ornot" (-9L) (run_opr "ornot" 6L 12L);
  check Alcotest.int64 "sll" 24L (run_opr "sll" 6L 2L);
  check Alcotest.int64 "srl" 1L (run_opr "srl" 6L 2L);
  check Alcotest.int64 "sra sign" (-1L) (run_opr "sra" (-2L) 1L);
  check Alcotest.int64 "extbl" 0x12L (run_opr "extbl" 0x1234L 1L);
  check Alcotest.int64 "zapnot" 0x34L (run_opr "zapnot" 0x1234L 1L)

let test_interp_cmov () =
  let src =
    {|
    .text
_start:
    ldiq t0, 0
    ldiq t1, 111
    ldiq t2, 7
    cmoveq t0, t1, t2   ; t0==0 so t2 <- 111
    ldiq t3, 5
    cmoveq t3, t1, t2   ; t3!=0, t2 unchanged
    mov  t2, v0
    call_pal 0
    |}
  in
  let _, outcome = assemble_run src in
  check Alcotest.bool "cmov select" true (outcome = Alpha.Interp.Exit 111)

let test_interp_byte_memory () =
  let src =
    {|
    .text
_start:
    la   t0, buf
    ldiq t1, 0x1ff
    stb  t1, 0(t0)      ; stores 0xff
    ldbu v0, 0(t0)
    call_pal 0
    .data
buf:
    .space 16
    |}
  in
  let _, outcome = assemble_run src in
  check Alcotest.bool "byte store truncates" true (outcome = Alpha.Interp.Exit 0xff)

let test_interp_output () =
  let st, outcome =
    assemble_run
      {|
      .text
  _start:
      ldiq a0, 'H'
      call_pal 1
      ldiq a0, 'i'
      call_pal 1
      ldiq a0, 42
      call_pal 2
      clr v0
      call_pal 0
      |}
  in
  check Alcotest.bool "halts" true (outcome = Alpha.Interp.Exit 0);
  check Alcotest.string "output" "Hi42\n" (Alpha.Interp.output st)

let test_interp_mem_fault_is_precise () =
  let st, outcome =
    assemble_run
      {|
      .text
  _start:
      ldiq t0, 1
      ldiq t1, 0x4000000
      ldq  t2, 0(t1)     ; unmapped -> fault here
      ldiq t0, 2
      call_pal 0
      |}
  in
  (match outcome with
  | Alpha.Interp.Fault (Alpha.Interp.Mem_fault { addr; is_store; _ }) ->
    check Alcotest.int "fault addr" 0x4000000 addr;
    check Alcotest.bool "is load" false is_store
  | _ -> Alcotest.fail "expected memory fault");
  (* instruction after the fault must not have executed *)
  check Alcotest.int64 "precise: t0 still 1" 1L (Alpha.Interp.get st 1)

let test_interp_unaligned_fault () =
  let _, outcome =
    assemble_run
      {|
      .text
  _start:
      la   t0, buf
      ldq  t1, 1(t0)
      call_pal 0
      .data
      .align 8
  buf:
      .space 16
      |}
  in
  match outcome with
  | Alpha.Interp.Fault (Alpha.Interp.Unaligned { width = 8; _ }) -> ()
  | _ -> Alcotest.fail "expected unaligned fault"

let test_interp_r31_discards () =
  let st, outcome =
    assemble_run
      {|
      .text
  _start:
      ldiq t0, 5
      addq t0, t0, zero  ; write to r31 discarded
      mov  zero, v0
      call_pal 0
      |}
  in
  check Alcotest.bool "r31 reads zero" true (outcome = Alpha.Interp.Exit 0);
  check Alcotest.int64 "r31 is 0" 0L (Alpha.Interp.get st 31)

let test_run_ev_emits_events () =
  let prog =
    Alpha.Assembler.assemble
      {|
      .text
  _start:
      clr   t0
      ldiq  t1, 3
  loop:
      addq  t0, t1, t0
      subq  t1, 1, t1
      bne   t1, loop
      call_pal 0
      |}
  in
  let st = Alpha.Interp.create prog in
  let evs = ref [] in
  (* a sink may not keep the event it is handed: it is reused *)
  let outcome =
    Alpha.Interp.run_ev st ~sink:(fun e -> evs := Machine.Ev.copy e :: !evs)
  in
  check Alcotest.bool "halts" true (outcome = Alpha.Interp.Exit (Int64.to_int (Alpha.Interp.get st 0) land 0xff));
  let evs = List.rev !evs in
  (* 2 setup + 3 iterations of 3 insns + final call_pal is not committed as
     an event... it halts before sink: count = 2 + 9 *)
  check Alcotest.int "event count" 11 (List.length evs);
  let branches = List.filter (fun e -> e.Machine.Ev.cls = Machine.Ev.Cond_br) evs in
  check Alcotest.int "three branch events" 3 (List.length branches);
  let taken = List.filter (fun (e : Machine.Ev.t) -> e.taken) branches in
  check Alcotest.int "two taken" 2 (List.length taken)

let suite =
  [
    ("known encodings vs handbook", `Quick, test_known_encodings);
    ("VM instructions have no encoding", `Quick, test_vm_insn_unencodable);
    ("assemble+run: basic", `Quick, test_asm_basic_program);
    ("assemble+run: loop", `Quick, test_asm_labels_and_branches);
    ("assemble+run: data section", `Quick, test_asm_data_section);
    ("assemble+run: call/ret", `Quick, test_asm_call_ret);
    ("assemble+run: jump table", `Quick, test_asm_jump_table);
    ("assembler rejects duplicate labels", `Quick, test_asm_duplicate_label_rejected);
    ("assembler rejects undefined symbols", `Quick, test_asm_undefined_symbol_rejected);
    ("interp arithmetic", `Quick, test_interp_arith);
    ("interp comparisons", `Quick, test_interp_compare);
    ("interp logic and shifts", `Quick, test_interp_logic_shift);
    ("interp conditional move", `Quick, test_interp_cmov);
    ("interp byte memory ops", `Quick, test_interp_byte_memory);
    ("interp PAL output", `Quick, test_interp_output);
    ("interp precise memory fault", `Quick, test_interp_mem_fault_is_precise);
    ("interp unaligned fault", `Quick, test_interp_unaligned_fault);
    ("interp r31 hardwired zero", `Quick, test_interp_r31_discards);
    ("run_ev emits branch events", `Quick, test_run_ev_emits_events);
    qtest prop_encode_decode_roundtrip;
    qtest prop_encode_32bit;
    qtest prop_disasm_reassembles;
    qtest prop_ldiq_materializes;
  ]
