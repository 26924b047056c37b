(* The repository benchmark: emulate / simulate / serve, end to end and
   layer by layer. See README.md for the metrics and how to run it. *)

open Common

(* Per-layer metrics of the traced run, in the order BENCHMARK.json lists
   them. A layer a workload does not exercise reads 0 on that workload. *)
let per_layer =
  [
    ("minic.compile_ms", "ms"); ("alpha.interp_mips", "MV-insn/s");
    ("vm.cold_ms", "ms"); ("vm.warm_ms", "ms"); ("vm.startup_ms", "ms");
    ("vm.interp_insns", "count"); ("vm.superblocks", "count");
    ("vm.seg_exits_per_minsn", "1/MV-insn");
    ("translate.units_per_insn", "units"); ("translate.span_ms", "ms");
    ("exec_acc.cold_mips", "MV-insn/s"); ("exec_straight.cold_mips", "MV-insn/s");
    ("exec_acc.warm_mips", "MV-insn/s"); ("exec_straight.warm_mips", "MV-insn/s");
    ("exec_acc.i_per_v", "ratio"); ("exec_acc.dras_hit_ratio", "ratio");
    ("exec_acc.dispatch_miss_per_kinsn", "1/kV-insn");
    ("tcache.slots", "count"); ("tcache.lookup_hit_ratio", "ratio");
    ("memory.chunks", "count");
    ("gc.minor_words_per_insn", "words"); ("gc.promoted_words_per_insn", "words");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("sim.ooo_orig_mips", "MV-insn/s"); ("sim.ooo_straight_mips", "MV-insn/s");
    ("sim.ildp_acc_mips", "MV-insn/s"); ("sim.nullsink_mips", "MV-insn/s");
    ("sim.model_share", "ratio"); ("sim.events_per_insn", "ratio");
    ("persist.save_ms", "ms"); ("persist.restore_ms", "ms");
    ("persist.encode_ms", "ms"); ("persist.decode_ms", "ms");
    ("persist.snapshot_kb", "KiB");
    ("service.admit_wait_ms", "ms"); ("service.late_ms", "ms");
    ("service.warm_p50_ms", "ms"); ("service.warm_p99_ms", "ms");
    ("service.cold_p50_ms", "ms"); ("service.cold_max_ms", "ms");
    ("service.warm_hit_ratio", "ratio"); ("service.build_waits", "count");
    ("service.utilization", "ratio"); ("service.sessions_per_s", "1/s");
    ("taskpool.scaling_2dom", "ratio"); ("trace.overhead_frac", "ratio");
    ("calib.kernel_ms", "ms");
  ]

(* [serve] is runnable but not in BENCHMARK.json: its session latency
   moved by more than any allowed bound between identical runs on a
   2-core VM. The traced [emulate] run measures its layers instead. *)
let workloads = [ "emulate"; "simulate"; "serve" ]

(* ---------- output ---------- *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else begin
    prerr_endline "warning: non-finite metric reported as 0";
    "0"
  end

let result_line ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun r ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.m_name (json_float r.m_value) r.m_unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    !attempted !failed body

let env ~workload ~seed ~seconds ~trace =
  Obs.Json.(
    Obj
      [
        ("git_rev", String (Obs.Envelope.git_rev ()));
        ("host", String (Obs.Envelope.host ()));
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("ocaml", String Sys.ocaml_version);
        ("workload", String workload);
        ("seed", Int seed);
        ("seconds", Float seconds);
        ("trace", Bool trace);
        ("worker_domains", Int (if workload = "serve" then Serve.jobs else 1));
        ("offered_rate_per_s", Float Serve.rate);
        ("p90_limit_ms", Float Serve.p90_limit_ms);
        ("telemetry_on", Bool (Obs.on ()));
        ("calib_ref_ms", Float Calib.ref_ms);
      ])

(* ---------- traced run ---------- *)

let traced ~workload ~seed ~seconds ~expected ~trace_dir ~env_json =
  Trace.on := true;
  let t0 = now () in
  let rows, obs =
    match workload with
    | "emulate" ->
      let rows, obs = Emulate.traced ~seed ~seconds in
      let service_rows, _ = Serve.traced ~seed ~seconds in
      (rows @ List.filter (fun (k, _) -> not (List.mem_assoc k rows)) service_rows, obs)
    | "simulate" -> Simulate.traced ~expected ~seed ~seconds
    | _ -> Serve.traced ~seed ~seconds
  in
  (* the host's speed in this run, to read the unscaled layer times by *)
  let kernel_ms =
    Trace.span "calib" (fun () -> Calib.median (List.init 25 (fun _ -> Calib.sample ())))
  in
  let rows = ("calib.kernel_ms", kernel_ms) :: rows in
  let wall = now () -. t0 in
  Trace.on := false;
  Trace.print_self_table stderr ~wall;
  let covered = Trace.covered () in
  if abs_float (covered -. wall) > 0.05 *. wall then
    fail "trace: top-level spans cover %.3f s of %.3f s wall" covered wall;
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Trace.export path ~base:t0 ~wall
    [ ("env", env_json); ("telemetry", Obs.to_json obs);
      ("per_layer", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) rows)) ];
  Printf.eprintf "trace written to %s\n%!" path;
  List.map
    (fun (name, unit) -> m name unit (Option.value ~default:0.0 (List.assoc_opt name rows)))
    per_layer

(* ---------- self-test ---------- *)

(* Counts that must repeat exactly: for each guest at scale 1, a cold
   Acc run's interpreted instructions, superblocks, translation units and
   minor words, and the ILDP model's cycles and minor words. The first run
   of each is a warm-up; the next two must agree. *)
let determinism () =
  let ok = ref true in
  List.iter
    (fun (w : Workloads.t) ->
      let im =
        let prog = Minic.compile (w.source ~scale:1) in
        { guest = w; scale = 1; prog; golden = golden_of prog }
      in
      let counts () =
        let w0 = minor_words () in
        let vm = Core.Vm.create ~kind:Core.Vm.Acc im.prog in
        ignore (Core.Vm.run vm);
        let words = minor_words () -. w0 in
        let c = Core.Vm.cost vm in
        let w1 = minor_words () in
        let sim = Simulate.simulate im Simulate.Acc in
        (vm.interp_insns, vm.superblocks, c.translate_units, words, sim.cycles, minor_words () -. w1)
      in
      ignore (counts ());
      let a = counts () and b = counts () in
      if a <> b then begin
        ok := false;
        let i, s, u, wd, c, sw = a and i', s', u', wd', c', sw' = b in
        Printf.eprintf
          "determinism %s: interp %d/%d superblocks %d/%d units %d/%d minor words %.0f/%.0f cycles %d/%d sim minor words %.0f/%.0f\n%!"
          w.name i i' s s' u u' wd wd' c c' sw sw'
      end)
    Workloads.all;
  !ok

(* A corrupted expected value must be reported as a mismatch: one stored
   simulate statistic and one golden console output. *)
let corrupted ~expected =
  let w = List.hd Workloads.all in
  let prog = Minic.compile (w.source ~scale:1) in
  let im = { guest = w; scale = 1; prog; golden = golden_of prog } in
  let tbl = Simulate.load_expected expected in
  let key = (w.name, Simulate.config_name Simulate.Acc) in
  let e = Hashtbl.find tbl key in
  let s = Simulate.simulate im Simulate.Acc in
  let before = !failed in
  Simulate.check_stats tbl im Simulate.Acc s;
  let clean = !failed = before in
  Hashtbl.replace tbl key { e with cycles = e.cycles + 1 };
  Simulate.check_stats tbl im Simulate.Acc s;
  let sim_caught = !failed = before + 1 in
  let bad = { im with golden = { im.golden with g_output = im.golden.g_output ^ "x" } } in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
  let outcome = Core.Vm.run vm in
  check_vm ~what:"selftest" im vm outcome;
  let good_ok = !failed = before + 1 in
  check_vm ~what:"selftest-corrupted" bad vm outcome;
  let emu_caught = !failed = before + 2 in
  Printf.eprintf "selftest: clean stats pass %b, corrupted cycles caught %b, clean run pass %b, corrupted output caught %b\n%!"
    clean sim_caught good_ok emu_caught;
  clean && sim_caught && good_ok && emu_caught

(* ---------- entry ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let expected = ref "perfbench/sim_expected.txt" and trace_dir = ref ".perfbench" in
  let selftest = ref false and write_expected = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME emulate | simulate | serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--expected", Arg.Set_string expected, "FILE stored simulate statistics");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where the traced run writes its spans");
      ("--selftest", Arg.Set selftest, " determinism and corrupted-reference self-tests");
      ("--write-expected", Arg.Set_string write_expected, "FILE store simulate statistics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if !write_expected <> "" then begin
    Simulate.regenerate !write_expected;
    exit 0
  end;
  if !selftest then begin
    let d = determinism () in
    let c = corrupted ~expected:!expected in
    Printf.printf "selftest: determinism %s, corrupted reference %s\n"
      (if d then "ok" else "FAILED") (if c then "caught" else "MISSED");
    exit (if d && c then 0 else 1)
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "; expected one of: " ^ String.concat ", " workloads);
    exit 2
  end;
  let env_json = env ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  print_endline ("env " ^ Obs.Json.to_string env_json);
  let metrics =
    if !trace = 1 then
      traced ~workload:!workload ~seed:!seed ~seconds:!seconds ~expected:!expected
        ~trace_dir:!trace_dir ~env_json
    else begin
      Calib.on := true;
      match !workload with
      | "emulate" -> Emulate.run ~seed:!seed ~seconds:!seconds
      | "simulate" -> Simulate.run ~expected:!expected ~seed:!seed ~seconds:!seconds
      | _ -> Serve.run ~seed:!seed ~seconds:!seconds
    end
  in
  let correct = !failed = 0 && !attempted > 0 in
  print_endline (result_line ~correct metrics);
  exit (if correct then 0 else 1)
