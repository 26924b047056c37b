(* Tests for the adversarial stress generators: determinism of the
   generator itself, each arm demonstrably provoking the translator
   mechanism it targets (capacity flushes with closure recompilation,
   chaining collapse, dual-RAS overflow), and full lockstep
   agreement with the golden interpreter for every arm under all 11
   backend/ISA/chaining modes. *)

open Oracle

let check = Alcotest.check

let agree name result =
  match result with
  | Lockstep.Agree c -> c
  | Lockstep.Diverge d ->
    Alcotest.failf "%s: unexpected divergence:@\n%a" name Lockstep.pp_divergence
      d

(* ---------- generator determinism ---------- *)

let test_determinism () =
  for seed = 1 to 5 do
    check Alcotest.string
      (Printf.sprintf "mixed seed %d: byte-identical source" seed)
      (Gen.source (Stress.generate ~seed))
      (Gen.source (Stress.generate ~seed))
  done;
  List.iter
    (fun arm ->
      check Alcotest.string
        (Stress.arm_name arm ^ ": byte-identical source")
        (Gen.source (Stress.single arm ~seed:7))
        (Gen.source (Stress.single arm ~seed:7)))
    Stress.all_arms;
  check Alcotest.bool "different seeds differ" false
    (Gen.source (Stress.generate ~seed:1) = Gen.source (Stress.generate ~seed:2))

(* ---------- per-arm target counters ---------- *)

let run_vm ~cfg prog =
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  (match Core.Vm.run ~fuel:50_000_000 vm with
  | Core.Vm.Exit _ -> ()
  | Core.Vm.Fault tr ->
    Alcotest.failf "stress arm trapped: %s"
      (Format.asprintf "%a" Alpha.Interp.pp_trap tr)
  | Core.Vm.Out_of_fuel -> Alcotest.fail "stress arm ran out of fuel");
  vm

let threaded_cfg =
  { Core.Config.default with
    engine = Core.Config.Threaded; hot_threshold = 10 }

let chain_share vm =
  let st = Core.Vm.exec_stats vm in
  float_of_int st.by_class.(2) /. float_of_int (max 1 st.i_exec)

(* Flush storm under a bounded cache on the threaded engine: phase
   migration must force capacity flushes, each dropping the compiled
   closures, and the rebuilt cache must be compiled again. *)
let test_flush_storm () =
  let prog = Gen.assemble (Stress.single ~iters:256 Stress.Flush_storm ~seed:7) in
  let cfg = { threaded_cfg with tcache_max_slots = 128 } in
  let vm = run_vm ~cfg prog in
  let segs = vm.Core.Vm.segs in
  check Alcotest.bool "capacity flushes fired" true
    (segs.Core.Vm.capacity_flushes > 0);
  check Alcotest.bool "flushes recorded" true
    (segs.Core.Vm.flushes >= segs.Core.Vm.capacity_flushes);
  check Alcotest.bool "closures recompiled after a flush" true
    (Core.Vm.recompiled vm > 0)

(* Unbounded cache: the same program must never flush — the counter is
   specific to the capacity policy, not flushing in general. *)
let test_flush_storm_unbounded () =
  let prog = Gen.assemble (Stress.single ~iters:256 Stress.Flush_storm ~seed:7) in
  let vm = run_vm ~cfg:threaded_cfg prog in
  check Alcotest.int "no capacity flushes without a bound" 0
    vm.Core.Vm.segs.Core.Vm.capacity_flushes

(* Megamorphic indirect jumps: chain-class instruction share must dwarf
   a well-behaved workload's under the identical configuration, and the
   dispatch path must be exercised harder. *)
let test_megamorphic () =
  let prog = Gen.assemble (Stress.single ~iters:256 Stress.Megamorphic ~seed:7) in
  let mega = run_vm ~cfg:threaded_cfg prog in
  let gzip =
    let w = List.find (fun (w : Workloads.t) -> w.name = "gzip") Workloads.all in
    run_vm ~cfg:threaded_cfg (Workloads.program ~scale:1 w)
  in
  let ms = chain_share mega and gs = chain_share gzip in
  if ms < 4.0 *. gs then
    Alcotest.failf "chain share %.2f%% not >= 4x gzip's %.2f%%" (100.0 *. ms)
      (100.0 *. gs);
  check Alcotest.bool "dispatch misses exceed gzip's" true
    (mega.Core.Vm.segs.Core.Vm.dispatch_misses
    > gzip.Core.Vm.segs.Core.Vm.dispatch_misses)

(* Call towers 16-24 deep against the 8-entry dual RAS: every iteration
   overflows the stack, and the return hit rate collapses below a
   call-balanced workload's. *)
let test_call_tower () =
  let prog = Gen.assemble (Stress.single ~iters:256 Stress.Call_tower ~seed:7) in
  let vm = run_vm ~cfg:threaded_cfg prog in
  let dras = Core.Vm.dual_ras vm in
  check Alcotest.bool "dual-RAS overflows fired" true
    (dras.Machine.Dual_ras.overflows > 0);
  let st = Core.Vm.exec_stats vm in
  let total = st.ret_dras_hits + st.ret_dras_misses in
  check Alcotest.bool "returns executed" true (total > 0);
  let rate = float_of_int st.ret_dras_hits /. float_of_int total in
  if rate >= 0.75 then
    Alcotest.failf "RAS hit rate %.1f%% not degraded" (100.0 *. rate)

(* ---------- lockstep agreement, all arms x all modes ---------- *)

let test_lockstep_all_modes () =
  List.iter
    (fun arm ->
      let prog = Gen.assemble (Stress.single ~iters:160 arm ~seed:3) in
      (* the flush-storm runs additionally bound the cache so capacity
         flushes themselves are lockstep-verified in every mode *)
      let tcache_max_slots =
        match arm with Stress.Flush_storm -> 128 | _ -> max_int
      in
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "%s %s" (Stress.arm_name arm)
              (Lockstep.mode_name mode)
          in
          let c =
            agree name (Lockstep.run ~tcache_max_slots ~mode prog)
          in
          check Alcotest.bool (name ^ " retired > 0") true
            (c.Lockstep.retired > 0))
        Lockstep.all_modes)
    Stress.all_arms

(* The threaded engine through a capacity flush, under lockstep: the
   exact scenario the flush-storm bench runs, verified architecturally. *)
let test_lockstep_flush_storm_threaded () =
  let prog = Gen.assemble (Stress.single ~iters:256 Stress.Flush_storm ~seed:7) in
  let mode = List.hd Lockstep.all_modes in
  let c =
    agree "flush-storm threaded capped"
      (Lockstep.run ~threaded:true ~tcache_max_slots:128 ~mode prog)
  in
  check Alcotest.bool "flushes observed under lockstep" true
    (c.Lockstep.flushes > 0)

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "flush-storm forces capacity flushes" `Quick
      test_flush_storm;
    Alcotest.test_case "flush-storm benign when unbounded" `Quick
      test_flush_storm_unbounded;
    Alcotest.test_case "megamorphic collapses chaining" `Quick test_megamorphic;
    Alcotest.test_case "call-tower overflows dual RAS" `Quick test_call_tower;
    Alcotest.test_case "lockstep agreement, all arms x all modes" `Slow
      test_lockstep_all_modes;
    Alcotest.test_case "lockstep flush-storm, threaded" `Quick
      test_lockstep_flush_storm_threaded;
  ]
