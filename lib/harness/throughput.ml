(* Functional-throughput benchmark: translated execution speed of the VM
   itself (no timing model attached), measured in V-ISA MIPS over the
   fourteen workloads.

   Each workload runs twice on the same image: once on the golden Alpha
   interpreter ({!Alpha.Interp.run}), the reference, and once on the
   accumulator DBT's threaded-code engine. The two runs must end with the
   same outcome, console output, architected register checksum and
   retired V-insn count — [verify] checks that — which doubles as an
   end-to-end differential test of the DBT at full workload scale. The
   speedup is DBT over interpreter, both timed in the same process.

   The headline metric is whole-VM throughput: every architecturally
   retired V-ISA instruction (interpreted + translated) divided by
   wall-clock seconds. That is the quantity a functional-mode user of the
   DBT experiences; fragment-only rates would flatter the engines by
   hiding profiling and translation time. *)

type run_result = {
  outcome : string;
  output : string; (* PAL console output *)
  checksum : int64; (* architected register checksum *)
  alpha : int; (* V-ISA instructions retired in translated mode *)
  interp_insns : int;
  secs : float;
  minor_words : float; (* words allocated by [Vm.run] *)
}

let default_fuel = 100_000_000

let run_once ?(scale = 1) ?(fuel = default_fuel) (w : Workloads.t) =
  let prog = Workloads.program ~scale w in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let outcome = Core.Vm.run ~fuel vm in
  let secs = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let outcome =
    match outcome with
    | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
    | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
    | Core.Vm.Out_of_fuel -> "fuel"
  in
  Core.Vm.publish_obs vm;
  let ex = Option.get (Core.Vm.acc_exec vm) in
  {
    outcome;
    output = Core.Vm.output vm;
    checksum = Core.Vm.reg_checksum vm;
    alpha = ex.stats.alpha_retired;
    interp_insns = vm.interp_insns;
    secs;
    minor_words;
  }

(* V-ISA instructions architecturally retired by the run. *)
let retired r = r.alpha + r.interp_insns
let mips r = float_of_int (retired r) /. r.secs /. 1e6

(* The golden interpreter's run of the same image: the reference. *)
type golden = {
  g_outcome : string;
  g_output : string;
  g_checksum : int64;
  g_retired : int;
  g_secs : float;
}

let run_golden ?(scale = 1) ?(fuel = default_fuel) (w : Workloads.t) =
  let interp = Alpha.Interp.create (Workloads.program ~scale w) in
  let t0 = Unix.gettimeofday () in
  let outcome = Alpha.Interp.run ~fuel interp in
  let g_secs = Unix.gettimeofday () -. t0 in
  {
    g_outcome =
      (match outcome with
      | Alpha.Interp.Exit c -> Printf.sprintf "exit:%d" c
      | Alpha.Interp.Fault tr ->
        Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
      | Alpha.Interp.Out_of_fuel -> "fuel");
    g_output = Alpha.Interp.output interp;
    g_checksum = Alpha.Interp.reg_checksum interp;
    g_retired = interp.icount;
    g_secs;
  }

let golden_mips g = float_of_int g.g_retired /. g.g_secs /. 1e6

(* Minor-heap words allocated per retired V-ISA instruction, whole VM. *)
let words_per_insn r = r.minor_words /. float_of_int (max 1 (retired r))

(* The DBT run must agree with the interpreter on everything
   architecturally visible. *)
let verify ~(golden : golden) ~(threaded : run_result) =
  let ms = ref [] in
  let chk name got want =
    if got <> want then ms := Printf.sprintf "%s: %s vs %s" name got want :: !ms
  in
  chk "outcome" threaded.outcome golden.g_outcome;
  chk "output" threaded.output golden.g_output;
  chk "reg_checksum"
    (Printf.sprintf "%#Lx" threaded.checksum)
    (Printf.sprintf "%#Lx" golden.g_checksum);
  chk "retired"
    (string_of_int (retired threaded))
    (string_of_int golden.g_retired);
  List.rev !ms

type row = {
  name : string;
  golden : golden; (* best-of-repeats timing *)
  threaded : run_result;
  mismatches : string list;
}

let speedup r = mips r.threaded /. golden_mips r.golden

(* The allocation gate's quantity: threaded-engine words per V-insn over
   the whole sweep, total words over total instructions, so each workload
   weighs in proportion to the work it does. *)
let threaded_words_per_insn rows =
  let words =
    List.fold_left (fun a r -> a +. r.threaded.minor_words) 0.0 rows
  in
  let insns = List.fold_left (fun a r -> a + retired r.threaded) 0 rows in
  words /. float_of_int (max 1 insns)

(* Best-of-N wall clock by [secs]; the simulations are deterministic, so
   state and statistics are identical across repeats and only timing
   varies. *)
let best ~repeats ~secs f =
  let best = ref (f ()) in
  for _ = 2 to repeats do
    let r = f () in
    if secs r < secs !best then best := r
  done;
  !best

let best_golden ~repeats f = best ~repeats ~secs:(fun g -> g.g_secs) f
let best_run ~repeats f = best ~repeats ~secs:(fun r -> r.secs) f

let sweep ?(scale = 1) ?(fuel = default_fuel) ?(repeats = 3) () =
  List.map
    (fun (w : Workloads.t) ->
      let golden = best_golden ~repeats (fun () -> run_golden ~scale ~fuel w) in
      let threaded = best_run ~repeats (fun () -> run_once ~scale ~fuel w) in
      let mismatches = verify ~golden ~threaded in
      { name = w.name; golden; threaded; mismatches })
    Workloads.all

type jobs_row = { jobs : int; wall_secs : float; agg_mips : float }

(* Aggregate threaded-engine throughput with the workload sweep sharded
   over a worker pool — the experiment harness's usage pattern. *)
let jobs_sweep ~jobs ?(scale = 1) ?(fuel = default_fuel) () =
  let t0 = Unix.gettimeofday () in
  let results =
    Pool.with_pool ~jobs (fun pool ->
        Workloads.all
        |> List.map (fun w ->
               Pool.submit pool (fun () -> run_once ~scale ~fuel w))
        |> List.map Pool.await)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let total = List.fold_left (fun a r -> a + retired r) 0 results in
  { jobs; wall_secs = wall; agg_mips = float_of_int total /. wall /. 1e6 }

let render fmt rows =
  Format.fprintf fmt
    "Functional throughput (whole-VM V-ISA MIPS, translated execution)@.";
  Format.fprintf fmt "%-12s %12s %12s %10s %10s %10s  %s@." "workload"
    "interp" "threaded" "speedup" "xlated%" "words/insn" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %12.2f %12.2f %9.2fx %9.1f%% %10.3f  %s@."
        r.name (golden_mips r.golden) (mips r.threaded) (speedup r)
        (100.0 *. float_of_int r.threaded.alpha
        /. float_of_int (max 1 (retired r.threaded)))
        (words_per_insn r.threaded)
        (if r.mismatches = [] then "ok"
         else String.concat "; " r.mismatches))
    rows;
  let gm = Runner.geomean (List.map speedup rows) in
  Format.fprintf fmt "%-12s %12s %12s %9.2fx %10s %10.3f@." "geomean" "" "" gm
    "" (threaded_words_per_insn rows);
  gm

(* Baseline schema, version 3: the reference column is the golden
   interpreter ("interp_secs"/"interp_mips"), and "speedup" is threaded
   over interpreter. Versions 1 and 2 measured threaded over the removed
   match engine, so [--check] accepts this version only. *)
let schema = "ildp-dbt-exec-bench/3"

let json_of_row r =
  let module J = Obs.Json in
  J.Obj
    [ ("name", J.String r.name);
      ("outcome", J.String r.threaded.outcome);
      ("v_insns", J.Int (retired r.threaded));
      ("translated_alpha", J.Int r.threaded.alpha);
      ("interp_insns", J.Int r.threaded.interp_insns);
      ("interp_secs", J.Float r.golden.g_secs);
      ("interp_mips", J.Float (golden_mips r.golden));
      ("threaded_secs", J.Float r.threaded.secs);
      ("threaded_mips", J.Float (mips r.threaded));
      ("speedup", J.Float (speedup r));
      ("threaded_words_per_insn", J.Float (words_per_insn r.threaded));
      ("verified", J.Bool (r.mismatches = [])) ]

let to_json ~jobs ~scale ~fuel ~repeats rows jobs_rows =
  let module J = Obs.Json in
  Obs.Envelope.wrap ~schema ~jobs
    [ ("scale", J.Int scale);
      ("fuel", J.Int fuel);
      ("repeats", J.Int repeats);
      ("workloads", J.List (List.map json_of_row rows));
      ("geomean_speedup", J.Float (Runner.geomean (List.map speedup rows)));
      ("threaded_words_per_insn", J.Float (threaded_words_per_insn rows));
      ("jobs_sweep",
       J.List
         (List.map
            (fun (j : jobs_row) ->
              J.Obj
                [ ("jobs", J.Int j.jobs);
                  ("wall_secs", J.Float j.wall_secs);
                  ("agg_mips", J.Float j.agg_mips) ])
            jobs_rows)) ]

let write_json path ~jobs ~scale ~fuel ~repeats rows jobs_rows =
  Obs.Json.write_file path (to_json ~jobs ~scale ~fuel ~repeats rows jobs_rows)
