(* emulate: every registered guest runs to completion, cold, under
   Config.default with the threaded engine, once on the Acc backend and
   once on Straight_only. A pass is one such run per guest and backend.
   Each guest alternates between the two scales of [scales] from pass to
   pass, starting from one the seed draws, so every run holds the same
   mix of work whatever the seed. *)

open Common

let scales = [| 3; 4 |]

let backends = [ (Core.Vm.Acc, "acc"); (Core.Vm.Straight_only, "straight") ]

let setup () =
  let images, compile_s, interp_mips =
    load_images
      (List.concat_map
         (fun w -> List.map (fun scale -> (w, scale)) (Array.to_list scales))
         Workloads.all)
  in
  (List.map (fun im -> ((im.guest.name, im.scale), im)) images, compile_s, interp_mips)

(* The images of pass [k], in registry order, for the seed-drawn
   starting scale of each guest. *)
let plan phases images k =
  List.map2
    (fun (w : Workloads.t) phase -> List.assoc (w.name, scales.((phase + k) mod 2)) images)
    Workloads.all phases

let phases rng = List.map (fun _ -> Random.State.int rng 2) Workloads.all

type op = { o_backend : string; o_kind : string; o_ms : float; o_retired : int }

(* One cold run to completion; returns the VM for the layer probes. *)
let cold_run im (kind, bname) =
  let req = label im in
  Calib.tick ();
  let (vm, outcome), dt =
    time (fun () ->
        let vm = Trace.span ~req "vm.create" (fun () -> Core.Vm.create ~kind im.prog) in
        (vm, Trace.span ~req "vm.run" (fun () -> Core.Vm.run vm)))
  in
  check_vm ~what:("emulate/" ^ bname) im vm outcome;
  ( vm,
    { o_backend = bname; o_kind = req ^ "/" ^ bname; o_ms = dt *. 1000.0;
      o_retired = vm_retired vm } )

type pass = { ops : op list; wall : float; minor : float; promoted : float;
              minor_gcs : int; major_gcs : int }

let run_pass imgs =
  Trace.span "emulate.pass" @@ fun () ->
  assert_untraced ();
  let g0 = Gc.quick_stat () and w0 = minor_words () and k0 = !Calib.words in
  let t0 = now () in
  let ops = List.concat_map (fun im -> List.map (fun b -> snd (cold_run im b)) backends) imgs in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  { ops; wall; minor = minor_words () -. w0 -. (!Calib.words -. k0);
    promoted = g1.promoted_words -. g0.promoted_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections }

let retired ops = List.fold_left (fun a o -> a + o.o_retired) 0 ops
let busy_s ops = List.fold_left (fun a o -> a +. (o.o_ms /. 1000.0)) 0.0 ops
let mips ops = ratio (float (retired ops)) (busy_s ops) /. 1e6
let of_backend b ops = List.filter (fun o -> o.o_backend = b) ops

let e2e ps ~setup_s =
  let ops = List.concat_map (fun p -> p.ops) ps in
  let timing =
    timing_metrics ~what:"emulate"
      (List.map (fun o -> { t_kind = o.o_kind; t_insns = o.o_retired; t_ms = o.o_ms }) ops)
  in
  [ m "setup_s" "s" setup_s ] @ timing
  @ [
      m "alloc_words_per_insn" "words"
        (sum (List.map (fun p -> p.minor) ps) /. float (retired ops));
      m "peak_heap_mb" "MiB" (peak_heap_mb ());
    ]

let run ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let (images, _, _), setup_s = timed_setup setup in
  let phases = phases rng in
  let ps = passes ~seconds ~wall:(fun p -> p.wall) (fun k -> run_pass (plan phases images k)) in
  Calib.tick ();
  let n_ops = List.fold_left (fun a p -> a + List.length p.ops) 0 ps in
  Printf.eprintf "emulate: %d passes, %d guest runs (latency samples)\n%!" (List.length ps) n_ops;
  e2e ps ~setup_s

(* ---------- traced run: layer probes ---------- *)

(* Cold run, snapshot, warm restore and warm run of each image on both
   backends: the startup cost measured from outside, plus the counts the
   cold VMs hold. The warm time is the run alone, so cold − warm is
   profiling, translation and closure compilation. *)
let probe imgs =
  Trace.span "emulate.probe" @@ fun () ->
  List.concat_map
    (fun im ->
      List.map
        (fun ((kind, bname) as b) ->
          let vm, cold = cold_run im b in
          let req = label im in
          let snap = Trace.span ~req "vm.save_snapshot" (fun () -> Core.Vm.save_snapshot vm) in
          let wvm =
            Trace.span ~req "persist.restore" (fun () -> Core.Vm.create ~snapshot:snap ~kind im.prog)
          in
          let outcome, warm_s = time (fun () -> Trace.span ~req "vm.run" (fun () -> Core.Vm.run wvm)) in
          check_vm ~what:("emulate-warm/" ^ bname) im wvm outcome;
          (bname, vm, cold, warm_s *. 1000.0))
        backends)
    imgs

(* Aggregate Acc MIPS of one pass on a task pool of [jobs] domains. *)
let pool_mips imgs jobs =
  Trace.span (Printf.sprintf "taskpool.%ddom" jobs) @@ fun () ->
  let runs, wall =
    time (fun () ->
        Taskpool.Pool.with_pool ~jobs (fun pool ->
            List.map
              (fun im ->
                Taskpool.Pool.submit pool (fun () ->
                    let vm = Core.Vm.create ~kind:Core.Vm.Acc im.prog in
                    (im, vm, Core.Vm.run vm)))
              imgs
            |> List.map Taskpool.Pool.await))
  in
  List.iter (fun (im, vm, outcome) -> check_vm ~what:"emulate-pool" im vm outcome) runs;
  float (List.fold_left (fun a (_, vm, _) -> a + vm_retired vm) 0 runs) /. wall /. 1e6

let traced ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let images, compile_s, interp_mips = Trace.span "setup" setup in
  let phases = phases rng in
  let plans =
    let t0 = now () in
    ignore (Trace.span "warmup" (fun () -> run_pass (plan phases images 0)));
    let per = now () -. t0 in
    List.init (max 1 (int_of_float (seconds /. 2.0 /. per))) (plan phases images)
  in
  let base, obs, overhead = paired ~wall:(fun p -> p.wall) run_pass plans in
  let probes = probe (List.hd plans) in
  let acc = List.filter (fun (b, _, _, _) -> b = "acc") probes in
  let vms = List.map (fun (_, vm, _, _) -> vm) acc in
  let sumi f = float (List.fold_left (fun a vm -> a + f vm) 0 vms) in
  let ctx vm = Option.get (Core.Vm.acc_ctx vm) in
  let ex vm = Option.get (Core.Vm.acc_exec vm) in
  let acc_retired = sumi vm_retired in
  let translated = sumi (fun vm -> (Core.Vm.cost vm).translated_insns) in
  let warm_mips b =
    let rows = List.filter (fun (b', _, _, _) -> b' = b) probes in
    ratio (float (List.fold_left (fun a (_, _, o, _) -> a + o.o_retired) 0 rows))
      (sum (List.map (fun (_, _, _, w) -> w /. 1000.0) rows)) /. 1e6
  in
  let n_guests = float (List.length acc) in
  let cold_ms = sum (List.map (fun (_, _, o, _) -> o.o_ms) acc) /. n_guests in
  let warm_ms = sum (List.map (fun (_, _, _, w) -> w) acc) /. n_guests in
  let base_ops = List.concat_map (fun p -> p.ops) base in
  let base_ret = float (retired base_ops) in
  let n_base = float (List.length base) in
  let hits = obs_counter obs "tcache.lookup_hits" and misses = obs_counter obs "tcache.lookup_misses" in
  let scaling = pool_mips (List.hd plans) 2 /. pool_mips (List.hd plans) 1 in
  [
    ("minic.compile_ms", compile_s *. 1000.0);
    ("alpha.interp_mips", interp_mips);
    ("vm.cold_ms", cold_ms);
    ("vm.warm_ms", warm_ms);
    ("vm.startup_ms", cold_ms -. warm_ms);
    ("vm.interp_insns", sumi (fun vm -> vm.interp_insns));
    ("vm.superblocks", sumi (fun vm -> vm.superblocks));
    ( "vm.seg_exits_per_minsn",
      sumi (fun vm ->
          let s = vm.segs in
          s.branch_exits + s.pal_exits + s.dispatch_misses + s.trap_recoveries + s.fuel_stops)
      /. acc_retired *. 1e6 );
    ("translate.units_per_insn", sumi (fun vm -> (Core.Vm.cost vm).translate_units) /. translated);
    ("translate.span_ms", obs_span_s obs "translate" *. 1000.0 /. n_base);
    ("exec_acc.cold_mips", mips (of_backend "acc" base_ops));
    ("exec_straight.cold_mips", mips (of_backend "straight" base_ops));
    ("exec_acc.warm_mips", warm_mips "acc");
    ("exec_straight.warm_mips", warm_mips "straight");
    ("exec_acc.i_per_v", sumi (fun vm -> (ex vm).stats.i_exec) /. sumi (fun vm -> (ex vm).stats.alpha_retired));
    ( "exec_acc.dras_hit_ratio",
      let h = sumi (fun vm -> (ex vm).stats.ret_dras_hits) in
      ratio h (h +. sumi (fun vm -> (ex vm).stats.ret_dras_misses)) );
    ("exec_acc.dispatch_miss_per_kinsn", sumi (fun vm -> vm.segs.dispatch_misses) /. acc_retired *. 1000.0);
    ("tcache.slots", sumi (fun vm -> Core.Tcache.Acc.n_slots (ctx vm).tc));
    ("tcache.lookup_hit_ratio", ratio hits (hits +. misses));
    ("memory.chunks", sumi (fun vm -> Hashtbl.length (Core.Vm.memory vm).chunks));
    ("gc.minor_words_per_insn", sum (List.map (fun p -> p.minor) base) /. base_ret);
    ("gc.promoted_words_per_insn", sum (List.map (fun p -> p.promoted) base) /. base_ret);
    ("gc.minor_collections", float (List.fold_left (fun a p -> a + p.minor_gcs) 0 base) /. n_base);
    ("gc.major_collections", float (List.fold_left (fun a p -> a + p.major_gcs) 0 base) /. n_base);
    ("taskpool.scaling_2dom", scaling);
    ("trace.overhead_frac", overhead);
  ],
  obs
