(* Differential tests for the two loops over the compiled ops: a run with
   a null timing sink (the evented loop) must be observationally identical
   to a sink-less run (the trampoline): same architected state, same
   statistics, same segment, flush and recompile accounting — across every
   backend/ISA/chaining mode, across cache flushes, and through trap/PEI
   repair. The event stream itself is pinned by digests of every field of
   every event on three workloads under three configurations. *)

open Oracle

let check = Alcotest.check

(* Everything observable about a sink-less VM run, rendered to one string
   so a mismatch report shows the complete picture. *)
type obs = {
  outcome : string;
  output : string;
  checksum : int64;
  i_exec : int;
  by_class : int array;
  alpha : int;
  frag_enters : int;
  dras_hits : int;
  dras_misses : int;
  interp : int;
  superblocks : int;
  segs : int * int * int * int * int;
  flushes : int;
  recompiled : int; (* closures compiled after a flush *)
}

let show o =
  let b1, b2, b3, b4, b5 = o.segs in
  Printf.sprintf
    "outcome=%s output=%S regs=%#Lx i_exec=%d by_class=[%s] alpha=%d \
     frag_enters=%d dras=%d/%d interp=%d superblocks=%d \
     segs=%d/%d/%d/%d/%d flushes=%d recompiled=%d"
    o.outcome o.output o.checksum o.i_exec
    (String.concat ";" (Array.to_list (Array.map string_of_int o.by_class)))
    o.alpha o.frag_enters o.dras_hits o.dras_misses o.interp o.superblocks b1
    b2 b3 b4 b5 o.flushes o.recompiled

let run_vm ?(flush_every = 0) ?sink ~(mode : Lockstep.mode) prog : obs =
  let cfg =
    {
      Core.Config.default with
      isa = mode.isa;
      chaining = mode.chaining;
      fuse_mem = mode.fuse_mem;
      hot_threshold = 10;
    }
  in
  let vm = Core.Vm.create ~cfg ~kind:mode.kind prog in
  let boundaries = ref 0 in
  let boundary () =
    incr boundaries;
    if flush_every > 0 && !boundaries mod flush_every = 0 then Core.Vm.flush vm
  in
  let outcome = Core.Vm.run ?sink ~boundary ~fuel:10_000_000 vm in
  let outcome =
    match outcome with
    | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
    | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
    | Core.Vm.Out_of_fuel -> "fuel"
  in
  let st = Core.Vm.exec_stats vm in
  {
    outcome;
    output = Core.Vm.output vm;
    checksum = Core.Vm.reg_checksum vm;
    i_exec = st.i_exec;
    by_class = Array.copy st.by_class;
    alpha = st.alpha_retired;
    frag_enters = st.frag_enters;
    dras_hits = st.ret_dras_hits;
    dras_misses = st.ret_dras_misses;
    interp = vm.interp_insns;
    superblocks = vm.superblocks;
    segs =
      ( vm.segs.branch_exits,
        vm.segs.pal_exits,
        vm.segs.dispatch_misses,
        vm.segs.trap_recoveries,
        vm.segs.fuel_stops );
    flushes = vm.segs.flushes;
    recompiled = Core.Vm.recompiled vm;
  }

(* The sink-less run, after checking the null-sink run against it. *)
let check_loops name ?flush_every ~mode prog =
  let sinkless = run_vm ?flush_every ~mode prog in
  let evented = run_vm ?flush_every ~sink:ignore ~mode prog in
  check Alcotest.string name (show sinkless) (show evented);
  sinkless

(* ---------- generated programs, every mode ---------- *)

let test_loops_agree () =
  let translated = ref 0 in
  for seed = 1 to 6 do
    let prog = Gen.generate ~seed in
    let image = Gen.assemble prog in
    List.iter
      (fun mode ->
        let name =
          Printf.sprintf "seed %d %s" seed (Lockstep.mode_name mode)
        in
        let o = check_loops name ~mode image in
        translated := !translated + o.alpha)
      Lockstep.all_modes
  done;
  check Alcotest.bool "translated code was exercised" true (!translated > 0)

(* ---------- cache flushes mid-run (generation bump, full recompile) --- *)

let test_loops_agree_with_flush () =
  for seed = 1 to 4 do
    let prog = Gen.generate ~seed in
    let image = Gen.assemble prog in
    List.iter
      (fun mode ->
        let name =
          Printf.sprintf "flush seed %d %s" seed (Lockstep.mode_name mode)
        in
        let o = check_loops name ~flush_every:3 ~mode image in
        ignore o)
      Lockstep.all_modes
  done

(* ---------- trap/PEI repair through compiled closures ---------- *)

(* The faulting memory access sits on a translated hot path: a flag that
   is zero on all but one iteration steers its effective address, so the
   fault fires from inside a fragment and recovery must run through the
   PEI tables (closure cold path). *)
let trap_image body =
  Alpha.Assembler.assemble
    (Printf.sprintf
       {|
  .text
_start:
  la fp, buf
  ldiq t0, 9
  ldiq t8, 30
loop:
  cmpeq t8, 4, t9
%s
  addq t0, 1, t0
  subq t8, 1, t8
  bne t8, loop
  clr v0
  call_pal 0
  .data
  .align 8
buf:
  .space 64
|}
       body)

let trap_modes =
  List.filter
    (fun (m : Lockstep.mode) ->
      m.chaining = Core.Config.Sw_pred_ras && not m.fuse_mem)
    Lockstep.all_modes

let test_trap_repair_identical () =
  let cases =
    [
      ("unaligned load", "  addq t9, fp, t10\n  ldq t1, 0(t10)");
      ("unaligned store", "  addq t9, fp, t10\n  stq t0, 0(t10)");
      ("unmapped load", "  sll t9, 23, t10\n  addq t10, fp, t10\n  ldq t1, 0(t10)");
      ("unmapped store", "  sll t9, 23, t10\n  addq t10, fp, t10\n  stq t0, 0(t10)");
    ]
  in
  List.iter
    (fun (what, body) ->
      let image = trap_image body in
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "%s %s" what (Lockstep.mode_name mode)
          in
          let o = check_loops name ~mode image in
          let _, _, _, recoveries, _ = o.segs in
          check Alcotest.bool (name ^ ": recovered via PEI") true
            (recoveries > 0))
        trap_modes)
    cases

(* ---------- closure lifecycle: flush and patch replay ---------- *)

(* The differential cases above already prove the two loops
   observationally identical; these cases prove the closure shadow's
   lifecycle is really exercised — rebuilt after a flush, recompiled in
   place after a chain patch — on a full workload, for both backends (the
   lifecycle is shared code). *)

let cget snap n = Option.value ~default:0 (Obs.find snap n)

let with_counters f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let r = f () in
      (r, Obs.collect ()))

let gzip_mode kind : Lockstep.mode =
  { kind; isa = Core.Config.Modified; chaining = Core.Config.Sw_pred_ras;
    fuse_mem = false }

let kinds = [ ("acc", Core.Vm.Acc); ("straight", Core.Vm.Straight_only) ]

let workload name =
  match Workloads.find name with
  | Some w -> Workloads.program ~scale:1 w
  | None -> Alcotest.fail ("missing workload " ^ name)

(* A flush bumps the cache generation mid-run: the engine must drop its
   whole compiled shadow with the fragments, compile the rebuilt cache
   afresh, and both loops must still agree exactly. *)
let test_flush_mid_run () =
  let image = workload "gzip" in
  List.iter
    (fun (name, kind) ->
      let mode = gzip_mode kind in
      let o = check_loops (name ^ " gzip+flush") ~flush_every:5 ~mode image in
      check Alcotest.bool (name ^ " flushed mid-run") true (o.flushes >= 1);
      check Alcotest.bool
        (name ^ " closures recompiled after the flush")
        true (o.recompiled > 0))
    kinds

(* Chain patching rewrites a Call_xlate slot whose closure is already
   compiled (early fragments run before their exits are chained). The
   engine must replay the patch log into its shadow, recompiling exactly
   those slots. *)
let test_patch_replay () =
  let image = workload "gzip" in
  List.iter
    (fun (name, kind) ->
      let mode = gzip_mode kind in
      let evented = run_vm ~sink:ignore ~mode image in
      let sinkless, snap = with_counters (fun () -> run_vm ~mode image) in
      check Alcotest.string
        (name ^ " gzip: evented = sink-less after patches")
        (show sinkless) (show evented);
      check Alcotest.bool (name ^ " chain patches were applied") true
        (cget snap "tcache.patches" >= 1);
      check Alcotest.bool (name ^ " patched slots were recompiled") true
        (cget snap "engine.patch_replays" >= 1))
    kinds

(* ---------- the event stream ---------- *)

(* One event per executed translated slot, and recording them changes
   nothing architected. *)
let test_events_cover_slots () =
  let prog = Gen.generate ~seed:3 in
  let image = Gen.assemble prog in
  let mode = List.hd trap_modes in
  let n = ref 0 in
  let o = run_vm ~sink:(fun _ -> incr n) ~mode image in
  check Alcotest.bool "sink-attached run emitted events" true (!n > 0);
  check Alcotest.int "events cover executed translated slots" o.i_exec !n;
  check Alcotest.string "same state as sink-less" (show (run_vm ~mode image))
    (show o)

(* MD5 chained over 60 KB blocks of the marshalled events (every field of
   every event), with the event count and the run's executed-slot
   count. *)
let event_digest cfg kind prog =
  let b = Buffer.create 65536 and d = ref "" and n = ref 0 in
  let flush () =
    d := Digest.string (!d ^ Buffer.contents b);
    Buffer.clear b
  in
  let sink e =
    incr n;
    Buffer.add_string b (Marshal.to_string (e : Machine.Ev.t) []);
    if Buffer.length b >= 60000 then flush ()
  in
  let vm = Core.Vm.create ~cfg ~kind prog in
  ignore (Core.Vm.run ~sink vm);
  flush ();
  (Digest.to_hex !d, !n, (Core.Vm.exec_stats vm).i_exec)

(* Recorded with the per-slot match engine that emitted events before the
   evented loop ran the compiled ops: the timing models see the same
   stream, field for field. *)
let pinned_digests =
  [
    ("gzip", "acc", "39fe95d6985858be4ae5acc9bc175ae8", 387301);
    ("gzip", "acc-basic", "d756a2897df7b9a38ff41f5ee3084865", 566775);
    ("gzip", "straight", "654a6a9069fbca39eb880892683d6edb", 361004);
    ("mcf", "acc", "df4bbacdde4e5bd5b310feabd7820e88", 677780);
    ("mcf", "acc-basic", "4f6cc52f08656befea098bd5f9d29aa1", 983865);
    ("mcf", "straight", "6ac52ba5166347ee9807e84efec09e14", 581348);
    ("nn_mlp", "acc", "b4539225545e506a066a138ee5e260a9", 1019245);
    ("nn_mlp", "acc-basic", "2406c0cb4998d31bed31f1cfd86b889c", 1624876);
    ("nn_mlp", "straight", "91c8f9de88dad2773842383f477ea791", 893085);
  ]

let digest_config = function
  | "acc" -> (Core.Config.default, Core.Vm.Acc)
  | "acc-basic" ->
    ( { Core.Config.default with isa = Basic; chaining = No_pred },
      Core.Vm.Acc )
  | _ -> (Core.Config.default, Core.Vm.Straight_only)

let test_event_digests () =
  List.iter
    (fun (w, c, want, want_n) ->
      let cfg, kind = digest_config c in
      let digest, n, i_exec = event_digest cfg kind (workload w) in
      let label = w ^ " " ^ c in
      check Alcotest.string (label ^ " event digest") want digest;
      check Alcotest.int (label ^ " event count") want_n n;
      check Alcotest.int (label ^ " events cover executed slots") i_exec n)
    pinned_digests

let suite =
  [
    Alcotest.test_case "sink vs sink-less, all modes" `Quick test_loops_agree;
    Alcotest.test_case "sink vs sink-less under flushes" `Quick
      test_loops_agree_with_flush;
    Alcotest.test_case "trap/PEI repair identical" `Quick
      test_trap_repair_identical;
    Alcotest.test_case "flush mid-run recompiles closures" `Quick
      test_flush_mid_run;
    Alcotest.test_case "chain patch replays into closures" `Quick
      test_patch_replay;
    Alcotest.test_case "a sink sees every executed slot" `Quick
      test_events_cover_slots;
    Alcotest.test_case "event stream digests pinned" `Quick
      test_event_digests;
  ]
