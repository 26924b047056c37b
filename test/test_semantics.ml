(* Property tests pinning {!Alpha.Insn.eval_op} against independent
   reference implementations and algebraic identities. These are the value
   semantics shared between the interpreter and the translated I-ISA code,
   so a bug here would corrupt every execution mode identically — the
   differential tests cannot catch it, these can. *)

open Alpha.Insn

let qtest = QCheck_alcotest.to_alcotest

let pair64 = QCheck.(pair int64 int64)

let mk name count law = QCheck.Test.make ~name ~count pair64 law

(* ---------- counts (independent reference formulas) ---------- *)

let popcount64 v =
  (* Hamming weight via the SWAR algorithm — independent of eval_op's loop *)
  let open Int64 in
  let v = sub v (logand (shift_right_logical v 1) 0x5555555555555555L) in
  let v =
    add (logand v 0x3333333333333333L)
      (logand (shift_right_logical v 2) 0x3333333333333333L)
  in
  let v = logand (add v (shift_right_logical v 4)) 0x0f0f0f0f0f0f0f0fL in
  shift_right_logical (mul v 0x0101010101010101L) 56

let prop_ctpop =
  mk "ctpop = SWAR popcount" 1000 (fun (_, b) ->
      Int64.equal (eval_op Ctpop 0L b) (popcount64 b))

let prop_ctlz_cttz =
  mk "ctlz/cttz characterise the extreme set bits" 1000 (fun (_, b) ->
      let lz = Int64.to_int (eval_op Ctlz 0L b) in
      let tz = Int64.to_int (eval_op Cttz 0L b) in
      if Int64.equal b 0L then lz = 64 && tz = 64
      else
        lz >= 0 && lz < 64 && tz >= 0 && tz < 64
        (* the bit below the leading-zero count is set *)
        && Int64.logand (Int64.shift_right_logical b (63 - lz)) 1L = 1L
        && Int64.logand (Int64.shift_right_logical b tz) 1L = 1L
        && (tz = 0 || Int64.logand b (Int64.sub (Int64.shift_left 1L tz) 1L) = 0L))

(* ---------- byte manipulation identities ---------- *)

let prop_zap_zapnot_complement =
  mk "zap m + zapnot m partition the bytes" 500 (fun (a, b) ->
      let z = eval_op Zap a b and zn = eval_op Zapnot a b in
      Int64.equal (Int64.logor z zn) a && Int64.equal (Int64.logand z zn) 0L)

let prop_ext_ins_roundtrip =
  mk "insbl . extbl is masking" 500 (fun (a, b) ->
      (* extract byte k then re-insert it at k = isolate byte k *)
      let k = Int64.logand b 7L in
      let e = eval_op Extbl a k in
      let i = eval_op Insbl e k in
      let isolated =
        Int64.logand a (Int64.shift_left 0xffL (8 * Int64.to_int k))
      in
      Int64.equal i isolated)

let prop_msk_clears =
  mk "mskbl clears exactly the extracted byte" 500 (fun (a, b) ->
      let k = Int64.logand b 7L in
      let m = eval_op Mskbl a k in
      let e = eval_op Insbl (eval_op Extbl a k) k in
      Int64.equal (Int64.logor m e) a && Int64.equal (Int64.logand m e) 0L)

let prop_extq_shift =
  mk "extql is a logical right shift by bytes" 500 (fun (a, b) ->
      let k = Int64.to_int (Int64.logand b 7L) in
      Int64.equal (eval_op Extql a b) (Int64.shift_right_logical a (8 * k)))

let prop_extqh_extql_concat =
  mk "extqh/extql reassemble an unaligned quadword" 500 (fun (a, b) ->
      (* the classic Alpha unaligned-load idiom: for a byte offset k,
         extql(lo, k) | extqh(hi, k) = the quadword at offset k of hi:lo *)
      let k = Int64.to_int (Int64.logand b 7L) in
      let lo = a and hi = Int64.lognot a in
      let got =
        Int64.logor
          (eval_op Extql lo (Int64.of_int k))
          (eval_op Extqh hi (Int64.of_int k))
      in
      let expect =
        if k = 0 then
          (* both LDQ_U of the idiom read the same aligned quadword, and
             EXTQH's (64 - 0) mod 64 shift passes it through whole *)
          Int64.logor lo hi
        else
          Int64.logor
            (Int64.shift_right_logical lo (8 * k))
            (Int64.shift_left hi (8 * (8 - k)))
      in
      Int64.equal got expect)

(* ---------- comparisons ---------- *)

let prop_cmp_total_order =
  mk "cmplt/cmple/cmpeq form a total order" 1000 (fun (a, b) ->
      let lt = eval_op Cmplt a b and le = eval_op Cmple a b in
      let eq = eval_op Cmpeq a b and gt_ba = eval_op Cmplt b a in
      (* exactly one of lt, eq, gt *)
      Int64.add (Int64.add lt eq) gt_ba = 1L
      && Int64.equal le (Int64.logor lt eq |> fun x -> if Int64.equal x 0L then 0L else 1L))

let prop_cmpult_unsigned =
  mk "cmpult is unsigned" 1000 (fun (a, b) ->
      Int64.equal (eval_op Cmpult a b)
        (if Int64.unsigned_compare a b < 0 then 1L else 0L))

let prop_cmpbge_bytes =
  mk "cmpbge bit i = byte i comparison" 500 (fun (a, b) ->
      let m = Int64.to_int (eval_op Cmpbge a b) in
      let ok = ref true in
      for i = 0 to 7 do
        let ba = Int64.to_int (Int64.logand (Int64.shift_right_logical a (8 * i)) 0xffL) in
        let bb = Int64.to_int (Int64.logand (Int64.shift_right_logical b (8 * i)) 0xffL) in
        if (m land (1 lsl i) <> 0) <> (ba >= bb) then ok := false
      done;
      !ok)

(* ---------- arithmetic ---------- *)

let prop_umulh_reference =
  mk "umulh: (a*b) as 128 bits, high half" 500 (fun (a, b) ->
      (* reference via arbitrary-precision decomposition in 16-bit limbs *)
      let limbs x =
        Array.init 4 (fun i ->
            Int64.to_int (Int64.logand (Int64.shift_right_logical x (16 * i)) 0xffffL))
      in
      let la = limbs a and lb = limbs b in
      let acc = Array.make 8 0 in
      for i = 0 to 3 do
        for j = 0 to 3 do
          acc.(i + j) <- acc.(i + j) + (la.(i) * lb.(j))
        done
      done;
      (* carry propagate in 16-bit limbs *)
      let carry = ref 0 in
      for k = 0 to 7 do
        let v = acc.(k) + !carry in
        acc.(k) <- v land 0xffff;
        carry := v lsr 16
      done;
      let hi =
        Int64.logor
          (Int64.of_int acc.(4))
          (Int64.logor
             (Int64.shift_left (Int64.of_int acc.(5)) 16)
             (Int64.logor
                (Int64.shift_left (Int64.of_int acc.(6)) 32)
                (Int64.shift_left (Int64.of_int acc.(7)) 48)))
      in
      Int64.equal (eval_op Umulh a b) hi)

let prop_longword_ops_sign_extend =
  mk "addl/subl/mull produce canonical longwords" 1000 (fun (a, b) ->
      List.for_all
        (fun op ->
          let r = eval_op op a b in
          Int64.equal r (Int64.of_int32 (Int64.to_int32 r)))
        [ Addl; Subl; Mull; S4addl; S8addl; S4subl; S8subl ])

let prop_scaled_adds =
  mk "s4addq/s8addq = shift-and-add" 1000 (fun (a, b) ->
      Int64.equal (eval_op S4addq a b) (Int64.add (Int64.shift_left a 2) b)
      && Int64.equal (eval_op S8addq a b) (Int64.add (Int64.shift_left a 3) b)
      && Int64.equal (eval_op S4subq a b) (Int64.sub (Int64.shift_left a 2) b)
      && Int64.equal (eval_op S8subq a b) (Int64.sub (Int64.shift_left a 3) b))

(* ---------- logic ---------- *)

let prop_logic_de_morgan =
  mk "bic/ornot/eqv against De Morgan forms" 1000 (fun (a, b) ->
      Int64.equal (eval_op Bic a b) (Int64.logand a (Int64.lognot b))
      && Int64.equal (eval_op Ornot a b) (Int64.logor a (Int64.lognot b))
      && Int64.equal (eval_op Eqv a b) (Int64.lognot (Int64.logxor a b)))

let prop_shifts_use_low_six_bits =
  mk "shift amounts use b<5:0>" 1000 (fun (a, b) ->
      let k = Int64.logand b 63L in
      Int64.equal (eval_op Sll a b) (eval_op Sll a k)
      && Int64.equal (eval_op Srl a b) (eval_op Srl a k)
      && Int64.equal (eval_op Sra a b) (eval_op Sra a k))

let prop_sext =
  mk "sextb/sextw agree with shifts" 1000 (fun (_, b) ->
      Int64.equal (eval_op Sextb 0L b)
        Int64.(shift_right (shift_left b 56) 56)
      && Int64.equal (eval_op Sextw 0L b)
           Int64.(shift_right (shift_left b 48) 48))

(* conditions *)
let prop_cond_negations =
  QCheck.Test.make ~name:"branch conditions pair into negations" ~count:1000
    QCheck.int64 (fun v ->
      cond_true Eq v <> cond_true Ne v
      && cond_true Lt v <> cond_true Ge v
      && cond_true Le v <> cond_true Gt v
      && cond_true Lbc v <> cond_true Lbs v)

(* ---------- cell forms against the reference ----------

   [eval_into]/[cond_cell] are the engines' unboxed second implementation
   of [eval_op]/[cond_true]; they must agree on every operator, including
   when the result cell is also an operand cell. *)

module Cell = Machine.Cell

let edge_values =
  [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x7fffffffL; 0x80000000L;
    0xffffffffL; 0x0102030405060708L; 0x8070605040302010L;
    0x8080808080808080L; 0x7f7f7f7f7f7f7f7fL; 0x00ff00ff00ff00ffL;
    0xff00ff00ff00ff00L; 0x5555555555555555L; 0xaaaaaaaaaaaaaaaaL;
    63L; 64L; 0xffL ]

let non_cmov_op3 =
  List.filter
    (fun op -> not (is_cmov (Opr (op, 0, Rb 0, 0))))
    Test_alpha.all_op3

(* Every aliasing of three cells: distinct cells, result in either operand's
   cell, both operands in one cell, and all three in one cell. *)
let into_agrees op a b =
  let f = eval_into op in
  let c = Cell.create 3 and other = Cell.create 1 in
  let run dst od oa ob =
    Cell.set c 0 a;
    Cell.set c 8 b;
    Cell.set c 16 0x5a5a5a5aL;
    Cell.set other 0 b;
    f dst od c oa (if ob < 0 then other else c) (max ob 0);
    Cell.get dst od
  in
  let ab = eval_op op a b and aa = eval_op op a a in
  Int64.equal (run c 16 0 8) ab
  && Int64.equal (run c 0 0 8) ab
  && Int64.equal (run c 8 0 8) ab
  && Int64.equal (run other 0 0 (-1)) ab
  && Int64.equal (run c 16 0 0) aa
  && Int64.equal (run c 0 0 0) aa

let prop_eval_into_random =
  mk "eval_into = eval_op on every operator (random operands)" 300
    (fun (a, b) -> List.for_all (fun op -> into_agrees op a b) non_cmov_op3)

let test_eval_into_edges () =
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (into_agrees op a b) then
                Alcotest.failf
                  "eval_into disagrees with eval_op on %s %#Lx %#Lx"
                  (Alpha.Disasm.opr_name op) a b)
            edge_values)
        edge_values)
    non_cmov_op3

let cell_agrees c v =
  let f = cond_cell c in
  f (Cell.const v) 0 = cond_true c v

let prop_cond_cell =
  QCheck.Test.make ~name:"cond_cell = cond_true on every condition" ~count:500
    QCheck.int64 (fun v ->
      List.for_all
        (fun c -> List.for_all (cell_agrees c) (v :: edge_values))
        Test_alpha.all_conds)

let suite =
  List.map qtest
    [
      prop_ctpop;
      prop_ctlz_cttz;
      prop_zap_zapnot_complement;
      prop_ext_ins_roundtrip;
      prop_msk_clears;
      prop_extq_shift;
      prop_extqh_extql_concat;
      prop_cmp_total_order;
      prop_cmpult_unsigned;
      prop_cmpbge_bytes;
      prop_umulh_reference;
      prop_longword_ops_sign_extend;
      prop_scaled_adds;
      prop_logic_de_morgan;
      prop_shifts_use_low_six_bits;
      prop_sext;
      prop_cond_negations;
      prop_eval_into_random;
      prop_cond_cell;
    ]
  @ [ ("eval_into = eval_op on edge operands", `Quick, test_eval_into_edges) ]
