(* Fast-forward timing benchmark: sampled vs full-fidelity ILDP timing
   over the twelve workloads.

   Two timed arms per workload, both over the acc backend:

   - full fidelity: every translated-code event feeds the detailed Ildp
     model — the reference cycle count;
   - sampled: the same model behind the {!Uarch.Fastfwd} interval
     controller, which feeds only warm-up + detail windows and
     back-charges the skipped remainder at the measured rate.

   A third, untimed arm runs the controller with [interval = 0] at
   scale 1 and demands its cycle count equal the wrapped model's exactly
   — the sampling-off lockstep invariant. [--check] gates on the
   per-workload sampled-vs-full IPC error and on that invariant, not on
   any wall-clock quantity. *)

type arm = {
  outcome : string;
  cycles : int;
  alpha : int; (* V-ISA instructions retired in translated mode *)
  secs : float;
}

let default_fuel = 100_000_000

(* The sampled run must stay within this relative V-IPC error of the
   full-fidelity run; recorded in the baseline so the gate and the
   committed record cannot drift apart. *)
let err_bound = 0.05

let v_ipc (a : arm) = float_of_int a.alpha /. float_of_int (max 1 a.cycles)

let outcome_string = function
  | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
  | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
  | Core.Vm.Out_of_fuel -> "fuel"

(* One instrumented VM run with the given sink/boundary; [alpha] is
   accumulated here rather than read from the model so full, sampled and
   probe arms count retirement identically. *)
let timed_run ~scale ~fuel ~sink ~boundary ~cycles w =
  let prog = Workloads.program ~scale w in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
  let alpha = ref 0 in
  let sink ev =
    alpha := !alpha + ev.Machine.Ev.alpha_count;
    sink ev
  in
  let t0 = Unix.gettimeofday () in
  let outcome = Core.Vm.run ~sink ~boundary ~fuel vm in
  let secs = Unix.gettimeofday () -. t0 in
  { outcome = outcome_string outcome; cycles = cycles (); alpha = !alpha; secs }

let run_full ~scale ~fuel w =
  let m = Uarch.Ildp.create () in
  timed_run ~scale ~fuel ~sink:(Uarch.Ildp.feed m)
    ~boundary:(fun () -> Uarch.Ildp.boundary m)
    ~cycles:(fun () -> Uarch.Ildp.cycles m)
    w

let sampling_ctl ?interval ?warmup ?detail m =
  Uarch.Fastfwd.create ?interval ?warmup ?detail ~warm:(Uarch.Ildp.warm m)
    ~feed:(Uarch.Ildp.feed m)
    ~boundary:(fun () -> Uarch.Ildp.boundary m)
    ~cycles:(fun () -> m.Uarch.Ildp.last_commit)
    ()

let run_sampled ~interval ~scale ~fuel w =
  let m = Uarch.Ildp.create () in
  let ctl = sampling_ctl ~interval m in
  timed_run ~scale ~fuel ~sink:(Uarch.Fastfwd.feed ctl)
    ~boundary:(fun () -> Uarch.Fastfwd.boundary ctl)
    ~cycles:(fun () -> Uarch.Fastfwd.cycles ctl)
    w

(* Sampling-off lockstep probe: with [interval = 0] the controller must
   agree with the wrapped model cycle-for-cycle. Scale 1 — the invariant
   is structural, not statistical. *)
let run_exact_probe ~fuel w =
  let m = Uarch.Ildp.create () in
  let ctl = sampling_ctl ~interval:0 m in
  let r =
    timed_run ~scale:1 ~fuel ~sink:(Uarch.Fastfwd.feed ctl)
      ~boundary:(fun () -> Uarch.Fastfwd.boundary ctl)
      ~cycles:(fun () -> Uarch.Fastfwd.cycles ctl)
      w
  in
  (r, r.cycles = Uarch.Ildp.cycles m)

type row = {
  name : string;
  full : arm;
  sampled : arm;
  exact_ok : bool;
  mismatches : string list;
}

let err r = Float.abs ((v_ipc r.sampled /. v_ipc r.full) -. 1.0)
let speedup r = r.full.secs /. r.sampled.secs

(* The sampled run may only differ from the full run in cycle count —
   outcome and retirement are functional state the sink cannot touch. *)
let verify ~(full : arm) ~(sampled : arm) ~exact_ok =
  let ms = ref [] in
  if sampled.outcome <> full.outcome then
    ms :=
      Printf.sprintf "outcome: %s vs %s" sampled.outcome full.outcome :: !ms;
  if sampled.alpha <> full.alpha then
    ms := Printf.sprintf "alpha_retired: %d vs %d" sampled.alpha full.alpha :: !ms;
  if not exact_ok then
    ms := "interval=0 controller diverged from wrapped model" :: !ms;
  List.rev !ms

let sweep ?(interval = Uarch.Fastfwd.default_interval) ?(scale = 1)
    ?(fuel = default_fuel) () =
  List.map
    (fun (w : Workloads.t) ->
      let full = run_full ~scale ~fuel w in
      let sampled = run_sampled ~interval ~scale ~fuel w in
      let _, exact_ok = run_exact_probe ~fuel w in
      { name = w.name; full; sampled; exact_ok;
        mismatches = verify ~full ~sampled ~exact_ok })
    Workloads.all

let render fmt rows =
  Format.fprintf fmt
    "Fast-forward timing (ILDP model, sampled vs full fidelity)@.";
  Format.fprintf fmt "%-12s %12s %12s %7s %7s %6s %8s  %s@." "workload"
    "cyc(full)" "cyc(sampled)" "vIPC" "vIPC'" "err%" "speedup" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %12d %12d %7.3f %7.3f %5.1f%% %7.2fx  %s@."
        r.name r.full.cycles r.sampled.cycles (v_ipc r.full) (v_ipc r.sampled)
        (100.0 *. err r) (speedup r)
        (if r.mismatches = [] then "ok" else String.concat "; " r.mismatches))
    rows;
  let max_err = List.fold_left (fun a r -> Float.max a (err r)) 0.0 rows in
  Format.fprintf fmt "%-12s max err %.1f%% (bound %.0f%%), geomean speedup %.2fx@."
    "summary" (100.0 *. max_err) (100.0 *. err_bound)
    (Runner.geomean (List.map speedup rows));
  max_err

let schema = "ildp-dbt-timing/1"

let json_of_row r =
  let module J = Obs.Json in
  J.Obj
    [ ("name", J.String r.name);
      ("outcome", J.String r.full.outcome);
      ("alpha", J.Int r.full.alpha);
      ("cycles_full", J.Int r.full.cycles);
      ("cycles_sampled", J.Int r.sampled.cycles);
      ("v_ipc_full", J.Float (v_ipc r.full));
      ("v_ipc_sampled", J.Float (v_ipc r.sampled));
      ("err", J.Float (err r));
      ("exact_ok", J.Bool r.exact_ok);
      ("full_secs", J.Float r.full.secs);
      ("sampled_secs", J.Float r.sampled.secs);
      ("speedup", J.Float (speedup r));
      ("verified", J.Bool (r.mismatches = [])) ]

let to_json ~jobs ~scale ~fuel ~interval rows =
  let module J = Obs.Json in
  Obs.Envelope.wrap ~schema ~jobs
    [ ("scale", J.Int scale);
      ("fuel", J.Int fuel);
      ("interval", J.Int interval);
      ("warmup", J.Int Uarch.Fastfwd.default_warmup);
      ("detail", J.Int Uarch.Fastfwd.default_detail);
      ("err_bound", J.Float err_bound);
      ("workloads", J.List (List.map json_of_row rows));
      ("max_err", J.Float (List.fold_left (fun a r -> Float.max a (err r)) 0.0 rows));
      ("geomean_speedup", J.Float (Runner.geomean (List.map speedup rows))) ]

let write_json path ~jobs ~scale ~fuel ~interval rows =
  Obs.Json.write_file path (to_json ~jobs ~scale ~fuel ~interval rows)
