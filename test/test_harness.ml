(* Harness smoke tests: experiment drivers run end-to-end, print a row per
   workload, and produce finite, sane numbers; the runner memoises. *)

let check = Alcotest.check

let render f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt ~scale:1;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let all_names () = List.map (fun (w : Workloads.t) -> w.name) Workloads.all

let test_registry () =
  check Alcotest.int "13 experiments" 13 (List.length Harness.Experiments.all);
  List.iter
    (fun (e : Harness.Experiments.exp) ->
      check Alcotest.bool (e.id ^ " described") true (String.length e.desc > 5);
      check Alcotest.bool (e.id ^ " findable") true
        (Harness.Experiments.find e.id <> None))
    Harness.Experiments.all;
  check Alcotest.bool "unknown id" true (Harness.Experiments.find "nope" = None)

(* every experiment except table1 (pure configuration print) declares a
   non-empty run plan, and plans dedup to at most 12 workloads x configs *)
let test_plans_declared () =
  List.iter
    (fun (e : Harness.Experiments.exp) ->
      let n = List.length (e.plan ~scale:1) in
      if e.id = "table1" then check Alcotest.int "table1 plan empty" 0 n
      else check Alcotest.bool (e.id ^ " has a plan") true (n > 0))
    Harness.Experiments.all

let test_table1_prints_parameters () =
  let out = render Harness.Experiments.table1 in
  List.iter
    (fun needle ->
      check Alcotest.bool ("mentions " ^ needle) true (contains out needle))
    [ "gshare"; "BTB"; "dual-address RAS"; "128"; "FIFO"; "4/6/8 PEs" ]

let test_fig7_rows_and_sanity () =
  let out = render Harness.Experiments.fig7 in
  List.iter
    (fun n -> check Alcotest.bool ("row for " ^ n) true (contains out n))
    (all_names ());
  check Alcotest.bool "no NaNs" false (contains out "nan");
  (* the headline claims are printed *)
  check Alcotest.bool "global summary" true (contains out "global outputs")

let test_sec42_overhead_sane () =
  let out = render Harness.Experiments.sec42 in
  List.iter
    (fun n -> check Alcotest.bool ("row for " ^ n) true (contains out n))
    (all_names ());
  check Alcotest.bool "no NaNs" false (contains out "nan")

let test_runner_results_sane () =
  let w = Option.get (Workloads.find "gzip") in
  let r = Harness.Runner.acc w in
  check Alcotest.bool "work translated" true (r.a_alpha > 100_000);
  check Alcotest.bool "expansion in band" true
    (let e = float_of_int r.a_i_exec /. float_of_int r.a_alpha in
     e > 1.0 && e < 2.5);
  check Alcotest.bool "categories sum to 1" true
    (abs_float (Array.fold_left ( +. ) 0.0 r.a_cat_dyn -. 1.0) < 1e-6);
  check Alcotest.bool "dbt work order of magnitude" true
    (r.a_dbt_work > 100.0 && r.a_dbt_work < 5000.0)

let test_runner_memoises () =
  let w = Option.get (Workloads.find "gzip") in
  let a = Harness.Runner.acc w in
  let b = Harness.Runner.acc w in
  check Alcotest.bool "same physical result" true (a == b);
  let c = Harness.Runner.acc ~n_accs:8 w in
  check Alcotest.bool "different key, different run" true (c != a)

let test_original_vs_ildp_timing () =
  let w = Option.get (Workloads.find "gzip") in
  let o = Harness.Runner.original w in
  check Alcotest.bool "original IPC plausible" true (o.v_ipc > 0.5 && o.v_ipc <= 4.0);
  let params = { Uarch.Ildp.default_params with n_pe = 8 } in
  let i = Harness.Runner.acc ~ildp:params w in
  let it = Option.get i.a_t in
  check Alcotest.bool "ILDP V-IPC plausible" true (it.v_ipc > 0.3 && it.v_ipc <= 4.0);
  (* the ILDP machine executes MORE instructions for the same V-ISA work *)
  check Alcotest.bool "native IPC >= V-IPC" true (it.ipc >= it.v_ipc)

(* the shared relative-tolerance gates behind --check: symmetric per-row
   deviation, and the deliberately asymmetric geomean gate (regression
   fails, improvement only notes) *)
let test_check_rel_gate_directions () =
  let open Harness.Check in
  check Alcotest.bool "below tol exceeds" true
    (rel_exceeds ~tol:0.1 ~base:2.0 1.7);
  check Alcotest.bool "above tol exceeds" true
    (rel_exceeds ~tol:0.1 ~base:2.0 2.3);
  check Alcotest.bool "within tol" false (rel_exceeds ~tol:0.1 ~base:2.0 2.1);
  check Alcotest.bool "non-positive baseline never gates" false
    (rel_exceeds ~tol:0.1 ~base:0.0 99.0);
  let dir base current =
    match rel_direction ~tol:0.1 ~base current with
    | Below -> "below"
    | Within -> "within"
    | Above -> "above"
  in
  check Alcotest.string "regression" "below" (dir 2.0 1.5);
  check Alcotest.string "low edge inside" "within" (dir 2.0 1.85);
  check Alcotest.string "high edge inside" "within" (dir 2.0 2.15);
  check Alcotest.string "improvement" "above" (dir 2.0 2.5);
  check Alcotest.string "zero baseline" "within" (dir 0.0 99.0)

let test_check_gate_geomean_asymmetric () =
  let gate base current =
    let ok = ref true and lines = ref [] in
    Harness.Check.gate_geomean ~ok ~lines ~tol:0.1 ~what:"geomean speedup"
      ~base current;
    (!ok, String.concat "\n" !lines)
  in
  (* falling below the baseline is a CI failure *)
  let ok, out = gate 2.0 1.5 in
  check Alcotest.bool "regression fails" false ok;
  check Alcotest.bool "regression reported as FAIL" true (contains out "FAIL");
  (* exceeding it must never fail — only a baseline-refresh note *)
  let ok, out = gate 2.0 2.5 in
  check Alcotest.bool "improvement passes" true ok;
  check Alcotest.bool "improvement is a note" true (contains out "note");
  check Alcotest.bool "improvement is not a FAIL" false (contains out "FAIL");
  check Alcotest.bool "suggests refreshing baseline" true
    (contains out "refreshing the baseline");
  (* within tolerance is a plain ok line *)
  let ok, out = gate 2.0 2.05 in
  check Alcotest.bool "within passes" true ok;
  check Alcotest.bool "within is ok" true (contains out "ok   ")

(* the cost gate is the mirror image: a rise fails, a fall only notes *)
let test_check_gate_cost_asymmetric () =
  let gate base current =
    let ok = ref true and lines = ref [] in
    Harness.Check.gate_cost ~ok ~lines ~tol:0.25 ~what:"words/V-insn" ~base
      current;
    (!ok, String.concat "\n" !lines)
  in
  let ok, out = gate 0.2 0.3 in
  check Alcotest.bool "rise fails" false ok;
  check Alcotest.bool "rise reported as FAIL" true (contains out "FAIL");
  let ok, out = gate 3.0 0.2 in
  check Alcotest.bool "fall passes" true ok;
  check Alcotest.bool "fall is a note" true (contains out "note");
  let ok, out = gate 0.2 0.24 in
  check Alcotest.bool "within passes" true ok;
  check Alcotest.bool "within is ok" true (contains out "ok   ")

(* an exec baseline must carry the words/V-insn it gates; without the
   field the gate fails rather than silently passing *)
let test_check_exec_needs_words () =
  let module J = Obs.Json in
  let doc words =
    J.Obj
      ([ ("workloads", J.List []); ("geomean_speedup", J.Float 1.0) ]
      @ if words then [ ("threaded_words_per_insn", J.Float 0.5) ] else [])
  in
  let r = Harness.Check.check_exec ~tol:0.25 (doc false) [] in
  check Alcotest.bool "missing field fails" false r.ok;
  check Alcotest.bool "reported as malformed" true
    (contains (String.concat "\n" r.lines) "malformed");
  let r = Harness.Check.check_exec ~tol:0.25 (doc true) [] in
  check Alcotest.bool "field present is not malformed" false
    (contains (String.concat "\n" r.lines) "malformed")

let test_geomean_mean () =
  check (Alcotest.float 1e-9) "geomean" 2.0
    (Harness.Runner.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "mean" 2.0 (Harness.Runner.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "empty geomean" 0.0 (Harness.Runner.geomean [])

let suite =
  [
    ("experiment registry", `Quick, test_registry);
    ("experiment plans declared", `Quick, test_plans_declared);
    ("table1 prints the configuration", `Quick, test_table1_prints_parameters);
    ("fig7 rows and sanity", `Slow, test_fig7_rows_and_sanity);
    ("sec42 rows and sanity", `Slow, test_sec42_overhead_sane);
    ("runner: sane gzip statistics", `Slow, test_runner_results_sane);
    ("runner: memoisation", `Slow, test_runner_memoises);
    ("runner: timing plausibility", `Slow, test_original_vs_ildp_timing);
    ("check: relative gates both directions", `Quick,
      test_check_rel_gate_directions);
    ("check: geomean gate asymmetry", `Quick,
      test_check_gate_geomean_asymmetric);
    ("check: cost gate asymmetry", `Quick, test_check_gate_cost_asymmetric);
    ("check: exec baseline needs words/V-insn", `Quick,
      test_check_exec_needs_words);
    ("geomean and mean", `Quick, test_geomean_mean);
  ]
