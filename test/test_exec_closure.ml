(* Differential tests for the threaded-code execution engine: sink-less
   VM runs through the closure-compiled path must be observationally
   identical to the instrumented match engine: same
   architected state, same statistics, same segment accounting — across
   every backend/ISA/chaining mode, across cache flushes, and through
   trap/PEI repair. A final case checks that attaching a sink forces the
   instrumented engine regardless of the configured one (identical event
   streams). *)

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
  recompiled : int;
      (* closures compiled after a flush; engine-specific, so not part of
         [show] *)
}

let show o =
  let b1, b2, b3, b4, b5 = o.segs in
  Printf.sprintf
    "outcome=%s output=%S regs=%#Lx i_exec=%d by_class=[%s] alpha=%d \
     frag_enters=%d dras=%d/%d interp=%d superblocks=%d \
     segs=%d/%d/%d/%d/%d flushes=%d"
    o.outcome o.output o.checksum o.i_exec
    (String.concat ";" (Array.to_list (Array.map string_of_int o.by_class)))
    o.alpha o.frag_enters o.dras_hits o.dras_misses o.interp o.superblocks b1
    b2 b3 b4 b5 o.flushes

let run_vm ~engine ?(flush_every = 0) ?sink ~(mode : Lockstep.mode) prog : obs
    =
  let cfg =
    {
      Core.Config.default with
      isa = mode.isa;
      chaining = mode.chaining;
      fuse_mem = mode.fuse_mem;
      hot_threshold = 10;
      engine;
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

let check_engines name ?flush_every ~mode prog =
  let threaded = run_vm ~engine:Core.Config.Threaded ?flush_every ~mode prog in
  let matched = run_vm ~engine:Core.Config.Matched ?flush_every ~mode prog in
  check Alcotest.string name (show matched) (show threaded);
  threaded

(* ---------- generated programs, every mode ---------- *)

let test_engines_agree () =
  let translated = ref 0 in
  for seed = 1 to 6 do
    let prog = Gen.generate ~seed in
    let image = Gen.assemble prog in
    List.iter
      (fun mode ->
        let name =
          Printf.sprintf "seed %d %s" seed (Lockstep.mode_name mode)
        in
        let o = check_engines name ~mode image in
        translated := !translated + o.alpha)
      Lockstep.all_modes
  done;
  check Alcotest.bool "translated code was exercised" true (!translated > 0)

(* ---------- cache flushes mid-run (generation bump, full recompile) --- *)

let test_engines_agree_with_flush () =
  for seed = 1 to 4 do
    let prog = Gen.generate ~seed in
    let image = Gen.assemble prog in
    List.iter
      (fun mode ->
        let name =
          Printf.sprintf "flush seed %d %s" seed (Lockstep.mode_name mode)
        in
        let o = check_engines name ~flush_every:3 ~mode image in
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
          let o = check_engines name ~mode image in
          let _, _, _, recoveries, _ = o.segs in
          check Alcotest.bool (name ^ ": recovered via PEI") true
            (recoveries > 0))
        trap_modes)
    cases

(* ---------- closure lifecycle: flush and patch replay ---------- *)

(* The differential cases above already prove the threaded engine
   observationally identical to the instrumented one; these cases prove
   the closure shadow's lifecycle is really exercised — rebuilt after a
   flush, recompiled in place after a chain patch — on a full workload,
   for both backends (the lifecycle is shared code). *)

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
   afresh, and still match the instrumented engine exactly. *)
let test_flush_mid_run () =
  let image = workload "gzip" in
  List.iter
    (fun (name, kind) ->
      let mode = gzip_mode kind in
      let matched =
        run_vm ~engine:Core.Config.Matched ~flush_every:5 ~mode image
      in
      let threaded =
        run_vm ~engine:Core.Config.Threaded ~flush_every:5 ~mode image
      in
      check Alcotest.string
        (name ^ " gzip+flush: threaded = matched")
        (show matched) (show threaded);
      check Alcotest.bool (name ^ " flushed mid-run") true
        (threaded.flushes >= 1);
      check Alcotest.bool
        (name ^ " closures recompiled after the flush")
        true (threaded.recompiled > 0))
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
      let matched = run_vm ~engine:Core.Config.Matched ~mode image in
      let threaded, snap =
        with_counters (fun () ->
            run_vm ~engine:Core.Config.Threaded ~mode image)
      in
      check Alcotest.string
        (name ^ " gzip: threaded = matched after patches")
        (show matched) (show threaded);
      check Alcotest.bool (name ^ " chain patches were applied") true
        (cget snap "tcache.patches" >= 1);
      check Alcotest.bool (name ^ " patched slots were recompiled") true
        (cget snap "engine.patch_replays" >= 1))
    kinds

(* ---------- a sink forces the instrumented engine ---------- *)

let test_sink_forces_instrumented () =
  let prog = Gen.generate ~seed:3 in
  let image = Gen.assemble prog in
  let mode = List.hd trap_modes in
  let record () =
    let evs = ref [] in
    let sink ev = evs := ev :: !evs in
    let o = run_vm ~engine:Core.Config.Threaded ~sink ~mode image in
    (o, List.rev !evs)
  in
  let o1, evs1 = record () in
  let evs2 =
    let evs = ref [] in
    let sink ev = evs := ev :: !evs in
    ignore (run_vm ~engine:Core.Config.Matched ~sink ~mode image);
    List.rev !evs
  in
  check Alcotest.bool "sink-attached run emitted events" true (evs1 <> []);
  check Alcotest.int "same event count under both engine settings"
    (List.length evs2) (List.length evs1);
  check Alcotest.bool "identical event streams" true (evs1 = evs2);
  check Alcotest.int "events cover executed translated slots" o1.i_exec
    (List.length evs1)

let suite =
  [
    Alcotest.test_case "closure vs match engine, all modes" `Quick
      test_engines_agree;
    Alcotest.test_case "closure vs match engine under flushes" `Quick
      test_engines_agree_with_flush;
    Alcotest.test_case "trap/PEI repair identical" `Quick
      test_trap_repair_identical;
    Alcotest.test_case "flush mid-run recompiles closures" `Quick
      test_flush_mid_run;
    Alcotest.test_case "chain patch replays into closures" `Quick
      test_patch_replay;
    Alcotest.test_case "sink forces the instrumented engine" `Quick
      test_sink_forces_instrumented;
  ]
