(* Unit tests for the I-ISA definitions: well-formedness predicates, the
   encoded-size model, structure helpers and the pretty-printer. *)

open Accisa

let check = Alcotest.check

let d ?(gdst = None) ?(gopr = false) a : Insn.dst = { dacc = a; gdst; gopr }

let test_well_formed_accepts () =
  let ok =
    [
      Insn.Alu { op = Addq; d = d 0; a = Sacc 0; b = Sgpr 5 };
      Insn.Alu { op = Xor; d = d 1; a = Sacc 1; b = Sacc 1 } (* same acc twice *);
      Insn.Load { width = W8; signed = false; d = d 2; base = Sgpr 3; disp = 0 };
      Insn.Store { width = W1; value = Sacc 0; base = Sgpr 9; disp = 0 };
      Insn.Copy_to_gpr { g = 17; a = 3 };
      Insn.Bc { cond = Ne; v = Sacc 1; target = 4 };
      Insn.Bc { cond = Eq; v = Sgpr 8; target = 4 } (* branch on a GPR *);
    ]
  in
  List.iteri
    (fun i insn ->
      check Alcotest.bool (Printf.sprintf "ok %d" i) true (Insn.well_formed insn))
    ok

let test_well_formed_rejects () =
  let bad =
    [
      (* two distinct accumulators *)
      Insn.Alu { op = Addq; d = d 0; a = Sacc 0; b = Sacc 1 };
      (* two GPRs *)
      Insn.Alu { op = Addq; d = d 0; a = Sgpr 1; b = Sgpr 2 };
      Insn.Store { width = W8; value = Sgpr 1; base = Sgpr 2; disp = 0 };
      (* cmov predicate must be an accumulator *)
      Insn.Cmov_sel { d = d 0; p = Sgpr 1; nv = Simm 0L };
    ]
  in
  List.iteri
    (fun i insn ->
      check Alcotest.bool (Printf.sprintf "bad %d" i) false (Insn.well_formed insn))
    bad

let test_basic_formed_gpr_dest () =
  (* GPR-destination form: legal without GPR sources, illegal with one *)
  let gpr_dest =
    Insn.Alu { op = Addq; d = d ~gdst:(Some 7) (-1); a = Sacc 0; b = Simm 1L }
  in
  check Alcotest.bool "gpr-dest ok" true (Insn.basic_formed gpr_dest);
  let with_gpr_src =
    Insn.Alu { op = Addq; d = d ~gdst:(Some 7) (-1); a = Sgpr 3; b = Simm 1L }
  in
  check Alcotest.bool "gpr-dest with gpr source rejected" false
    (Insn.basic_formed with_gpr_src);
  let modified_style =
    Insn.Alu { op = Addq; d = d ~gdst:(Some 7) 0; a = Sacc 0; b = Simm 1L }
  in
  check Alcotest.bool "acc+gdst rejected in basic" false
    (Insn.basic_formed modified_style)

let test_structure_helpers () =
  let i = Insn.Alu { op = Subq; d = d 2; a = Sacc 2; b = Sgpr 17 } in
  check Alcotest.(option int) "acc read" (Some 2) (Insn.acc_read i);
  check Alcotest.(option int) "gpr read" (Some 17) (Insn.gpr_read i);
  check Alcotest.(option int) "acc written" (Some 2) (Insn.acc_written i);
  let copy = Insn.Copy_to_gpr { g = 4; a = 1 } in
  check Alcotest.(option int) "copy reads acc" (Some 1) (Insn.acc_read copy);
  check Alcotest.bool "copy produces no acc" true (Insn.acc_written copy = None);
  check Alcotest.bool "store is pei" true
    (Insn.is_pei (Insn.Store { width = W8; value = Sacc 0; base = Sgpr 1; disp = 0 }));
  check Alcotest.bool "alu is not pei" false (Insn.is_pei i);
  check Alcotest.bool "bc is control" true
    (Insn.is_control (Insn.Bc { cond = Eq; v = Sacc 0; target = 0 }))

(* ---------- size model ---------- *)

let test_sizes_16_bit () =
  let small =
    [
      Insn.Alu { op = Addq; d = d 0; a = Sacc 0; b = Simm 4L };
      Insn.Alu { op = Xor; d = d 0; a = Sacc 0; b = Sgpr 9 };
      Insn.Load { width = W8; signed = false; d = d 0; base = Sacc 0; disp = 0 };
      Insn.Store { width = W4; value = Sacc 0; base = Sgpr 2; disp = 0 };
      Insn.Copy_to_gpr { g = 1; a = 0 };
      Insn.Copy_from_gpr { d = d 0; g = 1 };
    ]
  in
  List.iteri
    (fun i insn ->
      check Alcotest.int (Printf.sprintf "16-bit %d" i) 2 (Size.bytes insn))
    small

let test_sizes_32_bit () =
  check Alcotest.int "big immediate" 4
    (Size.bytes (Insn.Alu { op = Addq; d = d 0; a = Sacc 0; b = Simm 4096L }));
  check Alcotest.int "branch" 4
    (Size.bytes (Insn.Bc { cond = Eq; v = Sacc 0; target = 9 }));
  check Alcotest.int "embedded address" 8
    (Size.bytes (Insn.Lta { d = d 0; value = 0x10000L }));
  check Alcotest.int "fused displacement widens" 4
    (Size.bytes
       (Insn.Load { width = W8; signed = false; d = d 0; base = Sacc 0; disp = 16 }))

let test_sizes_modified_sharing () =
  (* Fig. 2d: `R3 (A0) <- A0 xor R3` shares the single GPR specifier *)
  let shared =
    Insn.Alu { op = Xor; d = d ~gdst:(Some 3) 0; a = Sacc 0; b = Sgpr 3 }
  in
  check Alcotest.int "dst = src GPR stays 16-bit" 2 (Size.bytes shared);
  (* no GPR source at all: the slot is free for the destination *)
  let free_slot =
    Insn.Alu { op = And_; d = d ~gdst:(Some 3) 0; a = Sacc 0; b = Simm 15L }
  in
  check Alcotest.int "free slot stays 16-bit" 2 (Size.bytes free_slot);
  (* different source and destination GPRs force the wide format *)
  let two_gprs =
    Insn.Alu { op = Subq; d = d ~gdst:(Some 17) 1; a = Sgpr 17; b = Simm 1L }
  in
  check Alcotest.int "same reg shares" 2 (Size.bytes two_gprs);
  let really_two =
    Insn.Alu { op = Subq; d = d ~gdst:(Some 5) 1; a = Sgpr 17; b = Simm 1L }
  in
  check Alcotest.int "distinct regs widen" 4 (Size.bytes really_two)

let test_patch_size_stability () =
  (* patching a call-translator exit into a branch must not change layout *)
  let cx = Insn.Call_xlate_cond { cond = Eq; v = Sacc 0; exit_id = 3 } in
  let bc = Insn.Bc { cond = Eq; v = Sacc 0; target = 100 } in
  check Alcotest.int "cond exit size = branch size" (Size.bytes cx) (Size.bytes bc);
  let cu = Insn.Call_xlate { exit_id = 3 } in
  let br = Insn.Br { target = 100 } in
  check Alcotest.int "uncond exit size = branch size" (Size.bytes cu) (Size.bytes br)

(* ---------- disassembler ---------- *)

let test_disasm_notation () =
  check Alcotest.string "basic alu" "A0 <- xor A0, R1"
    (Disasm.to_string (Insn.Alu { op = Xor; d = d 0; a = Sacc 0; b = Sgpr 1 }));
  check Alcotest.string "modified alu" "R3 (A0) <- and A0, 255"
    (Disasm.to_string
       (Insn.Alu { op = And_; d = d ~gdst:(Some 3) 0; a = Sacc 0; b = Simm 255L }));
  check Alcotest.string "copy" "R17 <- A1"
    (Disasm.to_string (Insn.Copy_to_gpr { g = 17; a = 1 }));
  check Alcotest.string "load" "A0 <- mem8[R16]"
    (Disasm.to_string
       (Insn.Load { width = W8; signed = false; d = d 0; base = Sgpr 16; disp = 0 }))

(* ---------- event conversion ---------- *)

let test_trace_tokens () =
  let ev =
    Trace.ev ~pc:0x100
      (Insn.Alu { op = Addq; d = d ~gdst:(Some 9) ~gopr:true 2; a = Sacc 2; b = Sgpr 5 })
  in
  check Alcotest.int "src1 acc token" (Machine.Ev.acc_token 2) ev.src1;
  check Alcotest.int "src2 gpr token" 5 ev.src2;
  check Alcotest.int "dst acc token" (Machine.Ev.acc_token 2) ev.dst;
  check Alcotest.int "dst2 operational gpr" 9 ev.dst2;
  check Alcotest.bool "gopr write is not lazy" false ev.lazy_dst2;
  let lazy_ev =
    Trace.ev ~pc:0x100
      (Insn.Alu { op = Addq; d = d ~gdst:(Some 9) 2; a = Sacc 2; b = Simm 0L })
  in
  check Alcotest.bool "architected-only write is lazy" true lazy_ev.lazy_dst2;
  let gpr_dest =
    Trace.ev ~pc:0x100
      (Insn.Alu { op = Addq; d = d ~gdst:(Some 9) (-1); a = Sacc 2; b = Simm 0L })
  in
  check Alcotest.int "gpr-dest primary token" 9 gpr_dest.dst;
  check Alcotest.int "gpr-dest no second token" (-1) gpr_dest.dst2

let test_trace_steering () =
  let ev =
    Trace.ev ~pc:0 ~strand_start:true
      (Insn.Copy_from_gpr { d = d 3; g = 11 })
  in
  check Alcotest.int "steered by written acc" 3 ev.acc;
  check Alcotest.bool "strand start flows through" true ev.strand_start;
  let store =
    Trace.ev ~pc:0
      (Insn.Store { width = W8; value = Sgpr 1; base = Sacc 2; disp = 0 })
  in
  check Alcotest.int "store steered by read acc" 2 store.acc

let suite =
  [
    ("well-formed instructions accepted", `Quick, test_well_formed_accepts);
    ("operand-budget violations rejected", `Quick, test_well_formed_rejects);
    ("basic-ISA GPR-destination form", `Quick, test_basic_formed_gpr_dest);
    ("structure helpers", `Quick, test_structure_helpers);
    ("16-bit encodings", `Quick, test_sizes_16_bit);
    ("32-bit encodings", `Quick, test_sizes_32_bit);
    ("modified-ISA specifier sharing", `Quick, test_sizes_modified_sharing);
    ("patches preserve layout", `Quick, test_patch_size_stability);
    ("disassembler notation", `Quick, test_disasm_notation);
    ("event tokens", `Quick, test_trace_tokens);
    ("event steering", `Quick, test_trace_steering);
  ]
