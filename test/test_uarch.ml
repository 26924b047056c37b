(* Timing-model tests: bandwidth/latency sanity, predictor accounting, and
   end-to-end IPC plausibility on real translated workloads. *)

open Machine

let check = Alcotest.check

let mk_ev ?(pc = 0x1000) ?(cls = Ev.Alu) ?(src1 = -1) ?(dst = -1) ?(ea = 0)
    ?(taken = false) ?(target = 0) ?(pred = Ev.Not_control) ?(acc = -1)
    ?(strand_start = false) () =
  { Ev.default with pc; cls; src1; dst; ea; taken; target; pred; acc;
    strand_start; alpha_count = 1 }

(* ---------- slots ---------- *)

let test_slots_bandwidth () =
  let s = Uarch.Slots.create ~width:2 in
  check Alcotest.int "slot 1" 10 (Uarch.Slots.book s 10);
  check Alcotest.int "slot 2" 10 (Uarch.Slots.book s 10);
  check Alcotest.int "overflow to next cycle" 11 (Uarch.Slots.book s 10);
  check Alcotest.int "later request ok" 20 (Uarch.Slots.book s 20)

(* ---------- ooo model ---------- *)

let test_ooo_ideal_ipc () =
  (* 4-wide machine fed independent single-cycle ops: IPC must approach 4 *)
  let m = Uarch.Ooo.create () in
  for i = 0 to 9999 do
    Uarch.Ooo.feed m (mk_ev ~pc:(0x1000 + (4 * (i mod 8))) ~dst:(i mod 16) ())
  done;
  let ipc = Uarch.Ooo.ipc m in
  check Alcotest.bool (Printf.sprintf "ipc near 4 (%.2f)" ipc) true
    (ipc > 3.5 && ipc <= 4.0)

let test_ooo_dependence_chain () =
  (* a strict dependence chain cannot exceed IPC 1 *)
  let m = Uarch.Ooo.create () in
  for i = 0 to 4999 do
    Uarch.Ooo.feed m (mk_ev ~pc:(0x1000 + (4 * (i mod 8))) ~src1:0 ~dst:0 ())
  done;
  let ipc = Uarch.Ooo.ipc m in
  check Alcotest.bool (Printf.sprintf "chain ipc <= 1 (%.2f)" ipc) true
    (ipc <= 1.01)

let test_ooo_mul_latency () =
  (* dependent multiplies: ~1/7 IPC *)
  let m = Uarch.Ooo.create () in
  for i = 0 to 2099 do
    Uarch.Ooo.feed m
      (mk_ev ~pc:(0x1000 + (4 * (i mod 8))) ~cls:Ev.Mul ~src1:0 ~dst:0 ())
  done;
  let ipc = Uarch.Ooo.ipc m in
  check Alcotest.bool (Printf.sprintf "mul chain ipc ~1/7 (%.3f)" ipc) true
    (ipc < 0.16 && ipc > 0.12)

let test_ooo_mispredict_penalty () =
  (* alternating direction-heavy unpredictable branches hurt IPC *)
  let rng = Machine.Rng.create 7 in
  let run ~random =
    let m = Uarch.Ooo.create () in
    for _i = 0 to 9999 do
      let taken = if random then Machine.Rng.bool rng else true in
      Uarch.Ooo.feed m
        (mk_ev ~pc:0x2000 ~cls:Ev.Cond_br ~taken
           ~target:(if taken then 0x3000 else 0x2004)
           ~pred:Ev.P_cond ());
      for k = 0 to 2 do
        Uarch.Ooo.feed m (mk_ev ~pc:(0x3000 + (4 * k)) ~dst:(k + 1) ())
      done
    done;
    Uarch.Ooo.ipc m
  in
  let predictable = run ~random:false in
  let unpredictable = run ~random:true in
  check Alcotest.bool
    (Printf.sprintf "random branches slower (%.2f < %.2f)" unpredictable predictable)
    true
    (unpredictable < predictable *. 0.7)

let test_ooo_dcache_miss_hurts () =
  let run stride =
    let m = Uarch.Ooo.create () in
    for i = 0 to 9999 do
      Uarch.Ooo.feed m
        (mk_ev ~cls:Ev.Load ~ea:(0x100000 + (i * stride)) ~src1:0 ~dst:1 ())
    done;
    Uarch.Ooo.ipc m
  in
  let hits = run 0 and misses = run 4096 in
  check Alcotest.bool
    (Printf.sprintf "thrashing loads slower (%.3f < %.3f)" misses hits)
    true (misses < hits /. 2.0)

(* ---------- ildp model ---------- *)

let test_ildp_parallel_strands () =
  (* 8 independent strands on 8 PEs: near-width IPC; on 1 PE: ~1 *)
  let run n_pe =
    let m =
      Uarch.Ildp.create
        ~params:{ Uarch.Ildp.default_params with n_pe; comm = 0 }
        ()
    in
    for i = 0 to 9999 do
      let acc = i mod 8 in
      Uarch.Ildp.feed m
        (mk_ev ~pc:(0x1000 + (4 * (i mod 8)))
           ~src1:(Ev.acc_token acc) ~dst:(Ev.acc_token acc) ~acc
           ~strand_start:(i < 8) ())
    done;
    Uarch.Ildp.ipc m
  in
  let wide = run 8 and narrow = run 1 in
  check Alcotest.bool (Printf.sprintf "8 PEs near 4-wide (%.2f)" wide) true
    (wide > 3.0);
  check Alcotest.bool (Printf.sprintf "1 PE serialises (%.2f)" narrow) true
    (narrow <= 1.01)

let test_ildp_comm_latency_costs () =
  (* a ping-pong dependence through GPRs between two strands *)
  let run comm =
    let m =
      Uarch.Ildp.create
        ~params:{ Uarch.Ildp.default_params with n_pe = 4; comm }
        ()
    in
    for i = 0 to 4999 do
      let acc = i mod 2 in
      (* each instruction reads the other strand's GPR output *)
      Uarch.Ildp.feed m
        (mk_ev
           ~pc:(0x1000 + (4 * (i mod 8)))
           ~src1:(1 - (i mod 2)) (* GPR written by the other strand *)
           ~dst:(i mod 2) ~acc
           ~strand_start:(i < 2) ())
    done;
    Uarch.Ildp.v_ipc m
  in
  let fast = run 0 and slow = run 2 in
  check Alcotest.bool (Printf.sprintf "comm=2 slower (%.3f < %.3f)" slow fast)
    true (slow < fast)

let test_ildp_boundary_drains () =
  let m = Uarch.Ildp.create () in
  for _ = 0 to 99 do
    Uarch.Ildp.feed m (mk_ev ~cls:Ev.Mul ~src1:0 ~dst:0 ())
  done;
  let c1 = Uarch.Ildp.cycles m in
  Uarch.Ildp.boundary m;
  Uarch.Ildp.feed m (mk_ev ());
  check Alcotest.bool "post-boundary fetch after drain" true
    (Uarch.Ildp.cycles m >= c1)

(* ---------- pred ---------- *)

let test_pred_counts_cond_mispredicts () =
  let p = Uarch.Pred.create () in
  let rng = Machine.Rng.create 99 in
  for _ = 0 to 999 do
    let taken = Machine.Rng.bool rng in
    ignore
      (Uarch.Pred.classify p
         (mk_ev ~pc:0x4000 ~cls:Ev.Cond_br ~taken ~target:0x5000 ~pred:Ev.P_cond ()))
  done;
  let mpki = Uarch.Pred.mpki p ~insns:1000 in
  check Alcotest.bool (Printf.sprintf "random branch mpki high (%.0f)" mpki) true
    (mpki > 300.0)

let test_pred_ras_nested () =
  let p = Uarch.Pred.create () in
  (* call call ret ret, correctly paired: no ret mispredicts *)
  let call pc target =
    ignore
      (Uarch.Pred.classify p
         (mk_ev ~pc ~cls:Ev.Call ~taken:true ~target ~pred:Ev.P_ras_call ()))
  in
  let ret pc target =
    Uarch.Pred.classify p
      (mk_ev ~pc ~cls:Ev.Ret ~taken:true ~target ~pred:Ev.P_ras_ret ())
  in
  call 0x1000 0x2000;
  call 0x2000 0x3000;
  check Alcotest.bool "inner ret predicted" true (ret 0x310 0x2004 = `Taken_ok);
  check Alcotest.bool "outer ret predicted" true (ret 0x210 0x1004 = `Taken_ok);
  check Alcotest.int "no mispredicts" 0 p.mispredicts

(* ---------- end-to-end: translated code through the timing models ---------- *)

let fig2_src =
  {|
  .text
_start:
  la    a0, buf
  ldiq  a1, 2000
  clr   v0
  clr   t0
L1:
  ldbu  t2, 0(a0)
  subq  a1, 1, a1
  lda   a0, 1(a0)
  xor   t0, t2, t2
  srl   t0, 8, t0
  and   t2, 0xff, t2
  s8addq t2, v0, t2
  addq  t2, t0, t0
  bne   a1, L1
  clr   v0
  call_pal 0
  .data
buf:
  .space 2048
  |}

let test_end_to_end_ildp_ipc () =
  let prog = Alpha.Assembler.assemble fig2_src in
  let cfg = { Core.Config.default with isa = Core.Config.Modified } in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  let m = Uarch.Ildp.create () in
  let outcome =
    Core.Vm.run ~sink:(Uarch.Ildp.feed m) ~boundary:(fun () -> Uarch.Ildp.boundary m)
      ~fuel:1_000_000 vm
  in
  check Alcotest.bool "ran to completion" true (outcome = Core.Vm.Exit 0);
  let v = Uarch.Ildp.v_ipc m in
  check Alcotest.bool (Printf.sprintf "ILDP V-IPC plausible (%.2f)" v) true
    (v > 0.3 && v < 4.0)

let test_end_to_end_ooo_ipc () =
  let prog = Alpha.Assembler.assemble fig2_src in
  let st = Alpha.Interp.create prog in
  let m = Uarch.Ooo.create () in
  let outcome = Alpha.Interp.run_ev ~fuel:1_000_000 st ~sink:(Uarch.Ooo.feed m) in
  check Alcotest.bool "ran to completion" true (outcome = Alpha.Interp.Exit 0);
  let v = Uarch.Ooo.v_ipc m in
  check Alcotest.bool (Printf.sprintf "OoO V-IPC plausible (%.2f)" v) true
    (v > 0.5 && v <= 4.0)

let test_end_to_end_more_pes_not_slower () =
  let prog = Alpha.Assembler.assemble fig2_src in
  let run n_pe =
    let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
    let m =
      Uarch.Ildp.create ~params:{ Uarch.Ildp.default_params with n_pe } ()
    in
    ignore
      (Core.Vm.run ~sink:(Uarch.Ildp.feed m)
         ~boundary:(fun () -> Uarch.Ildp.boundary m)
         ~fuel:1_000_000 vm);
    Uarch.Ildp.v_ipc m
  in
  let p2 = run 2 and p8 = run 8 in
  check Alcotest.bool (Printf.sprintf "8 PE >= 2 PE (%.2f >= %.2f)" p8 p2) true
    (p8 >= p2 *. 0.98)

(* ---------- fast-forward tier: interval sampling ---------- *)

let sampled_fig2 ~interval =
  let prog = Alpha.Assembler.assemble fig2_src in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
  let m = Uarch.Ildp.create () in
  let ctl =
    Uarch.Fastfwd.create ~interval ~warmup:50 ~detail:100
      ~feed:(Uarch.Ildp.feed m)
      ~boundary:(fun () -> Uarch.Ildp.boundary m)
      ~cycles:(fun () -> m.Uarch.Ildp.last_commit)
      ()
  in
  let outcome =
    Core.Vm.run ~sink:(Uarch.Fastfwd.feed ctl)
      ~boundary:(fun () -> Uarch.Fastfwd.boundary ctl)
      ~fuel:1_000_000 vm
  in
  check Alcotest.bool "ran to completion" true (outcome = Core.Vm.Exit 0);
  (ctl, m)

let test_fastfwd_sampling_deterministic () =
  (* same program, same interval: the sampled results must be
     byte-identical once rendered (deterministic fields only) *)
  let json ctl =
    let module J = Obs.Json in
    J.to_string
      (J.Obj
         [ ("cycles", J.Int (Uarch.Fastfwd.cycles ctl));
           ("v_ipc", J.Float (Uarch.Fastfwd.v_ipc ctl));
           ("skip_ratio", J.Float (Uarch.Fastfwd.skip_ratio ctl)) ])
  in
  let a, _ = sampled_fig2 ~interval:500 in
  let b, _ = sampled_fig2 ~interval:500 in
  check Alcotest.bool "some instructions skipped" true
    (Uarch.Fastfwd.skip_ratio a > 0.0);
  check Alcotest.string "byte-identical sampled results" (json a) (json b)

let test_fastfwd_interval0_exact () =
  (* sampling off: the controller is a transparent wrapper and its cycle
     count equals the wrapped model's exactly *)
  let ctl, m = sampled_fig2 ~interval:0 in
  check Alcotest.int "interval=0 equals full fidelity" (Uarch.Ildp.cycles m)
    (Uarch.Fastfwd.cycles ctl);
  check (Alcotest.float 1e-9) "nothing skipped" 0.0
    (Uarch.Fastfwd.skip_ratio ctl)

let test_fastfwd_create_validates () =
  let mk ~interval ~warmup ~detail () =
    ignore
      (Uarch.Fastfwd.create ~interval ~warmup ~detail
         ~feed:(fun _ -> ())
         ~boundary:(fun () -> ())
         ~cycles:(fun () -> 0)
         ()
        : Uarch.Fastfwd.t)
  in
  Alcotest.check_raises "windows must leave a fast window"
    (Invalid_argument "Fastfwd.create: warmup + detail must leave a fast window")
    (mk ~interval:100 ~warmup:50 ~detail:50);
  Alcotest.check_raises "negative window"
    (Invalid_argument "Fastfwd.create: negative window")
    (mk ~interval:100 ~warmup:(-1) ~detail:10);
  (* interval 0 disables sampling and accepts any window sizes *)
  mk ~interval:0 ~warmup:50 ~detail:100 ()

(* ---------- allocation ---------- *)

(* The first [fuel] V-insns of gzip's translated event stream, copied out
   of the reused templates so they can be replayed. *)
let recorded_events kind =
  let w = Option.get (Workloads.find "gzip") in
  let vm = Core.Vm.create ~kind (Workloads.program ~scale:1 w) in
  let evs = ref [] in
  ignore
    (Core.Vm.run ~fuel:100_000
       ~sink:(fun e -> evs := Machine.Ev.copy e :: !evs)
       vm);
  Array.of_list (List.rev !evs)

(* Minor-heap words per event a model's [feed] allocates replaying [evs];
   [Gc.minor_words] is exact on one domain. *)
let feed_words feed evs =
  let w0 = Gc.minor_words () in
  Array.iter feed evs;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length evs)

let test_models_allocation_free () =
  let bound name words =
    check Alcotest.bool
      (Printf.sprintf "%s: %.3f words/event <= 0.5" name words)
      true (words <= 0.5)
  in
  let straight = recorded_events Core.Vm.Straight_only in
  bound "ooo" (feed_words (Uarch.Ooo.feed (Uarch.Ooo.create ())) straight);
  let acc = recorded_events Core.Vm.Acc in
  bound "ildp" (feed_words (Uarch.Ildp.feed (Uarch.Ildp.create ())) acc);
  let comm = { Uarch.Ildp.default_params with n_pe = 4; comm = 2 } in
  bound "ildp comm=2"
    (feed_words (Uarch.Ildp.feed (Uarch.Ildp.create ~params:comm ())) acc)

let suite =
  [
    ("slot booking bandwidth", `Quick, test_slots_bandwidth);
    ("ooo: independent ops reach width", `Quick, test_ooo_ideal_ipc);
    ("ooo: dependence chain serialises", `Quick, test_ooo_dependence_chain);
    ("ooo: multiply latency", `Quick, test_ooo_mul_latency);
    ("ooo: mispredicts cost cycles", `Quick, test_ooo_mispredict_penalty);
    ("ooo: d-cache misses cost cycles", `Quick, test_ooo_dcache_miss_hurts);
    ("ildp: strands spread over PEs", `Quick, test_ildp_parallel_strands);
    ("ildp: communication latency costs", `Quick, test_ildp_comm_latency_costs);
    ("ildp: boundary drains pipeline", `Quick, test_ildp_boundary_drains);
    ("pred: random cond branches mispredict", `Quick, test_pred_counts_cond_mispredicts);
    ("pred: nested RAS pairs", `Quick, test_pred_ras_nested);
    ("end-to-end ILDP V-IPC", `Quick, test_end_to_end_ildp_ipc);
    ("end-to-end OoO V-IPC", `Quick, test_end_to_end_ooo_ipc);
    ("end-to-end more PEs helps", `Quick, test_end_to_end_more_pes_not_slower);
    ("fastfwd: sampling deterministic", `Quick,
      test_fastfwd_sampling_deterministic);
    ("fastfwd: interval=0 is exact", `Quick, test_fastfwd_interval0_exact);
    ("fastfwd: window validation", `Quick, test_fastfwd_create_validates);
    ("models feed without allocating", `Quick, test_models_allocation_free);
  ]
