(* Shared pieces of the benchmark: clocks, order statistics, golden
   references, the failure ledger and metric rows. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- order statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float n)) - 1)))

(* Linearly interpolated percentile, [p] in [0, 100]: steadier than the
   nearest rank over a few dozen values. *)
let quantile p xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.0
  | 1 -> a.(0)
  | n ->
    let h = p /. 100.0 *. float (n - 1) in
    let i = min (n - 2) (int_of_float h) in
    a.(i) +. ((h -. float i) *. (a.(i + 1) -. a.(i)))

let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------- guests and golden references ---------- *)

(* The golden result of one guest image under the plain Alpha
   interpreter: every run of the same image, on any engine or through
   the service, must reproduce it. *)
type golden = {
  g_exit : int;
  g_output : string;
  g_checksum : int64;
  g_icount : int;  (* dynamic V-ISA instructions *)
}

type image = {
  guest : Workloads.t;
  scale : int;
  prog : Alpha.Program.t;
  golden : golden;
}

let label im = Printf.sprintf "%s@%d" im.guest.name im.scale

let golden_of prog =
  let st = Alpha.Interp.create prog in
  match Alpha.Interp.run st with
  | Alpha.Interp.Exit code ->
    {
      g_exit = code;
      g_output = Alpha.Interp.output st;
      g_checksum = Alpha.Interp.reg_checksum st;
      g_icount = st.icount;
    }
  | Fault tr -> failwith (Format.asprintf "golden run faulted: %a" Alpha.Interp.pp_trap tr)
  | Out_of_fuel -> failwith "golden run out of fuel"

(* Compile each (guest, scale) and run the golden interpreter on it,
   under spans when tracing. [Minic.compile] is the work
   [Workloads.program] does on a miss; calling it directly makes every
   setup repetition pay it. Also returns the total compile time and the
   interpreter's MIPS over the golden runs. *)
let load_images specs =
  let compile_s = ref 0.0 and interp_s = ref 0.0 and interp_n = ref 0 in
  let images =
    List.map
      (fun ((w : Workloads.t), scale) ->
        let prog, dc =
          time (fun () ->
              Trace.span ~req:w.name "minic.compile" (fun () -> Minic.compile (w.source ~scale)))
        in
        let golden, di =
          time (fun () -> Trace.span ~req:w.name "alpha.interp" (fun () -> golden_of prog))
        in
        compile_s := !compile_s +. dc;
        interp_s := !interp_s +. di;
        interp_n := !interp_n + golden.g_icount;
        { guest = w; scale; prog; golden })
      specs
  in
  (images, !compile_s, float !interp_n /. !interp_s /. 1e6)

(* ---------- the failure ledger ---------- *)

(* Every operation the benchmark attempts is counted here; a failed,
   refused, cancelled or mismatched one is also counted as failed and
   named on stderr. *)
let attempted = ref 0
let failed = ref 0

let attempt () = incr attempted

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("MISMATCH " ^ msg))
    fmt

(* Compare one finished guest run against its golden reference. *)
let check_run ~what im ~exit_code ~output ~checksum ~retired =
  let g = im.golden in
  if exit_code <> Some g.g_exit then
    fail "%s %s: exit %s, golden %d" what (label im)
      (match exit_code with Some c -> string_of_int c | None -> "none")
      g.g_exit
  else if output <> g.g_output then fail "%s %s: console output differs" what (label im)
  else if checksum <> g.g_checksum then fail "%s %s: register checksum differs" what (label im)
  else if retired <> g.g_icount then
    fail "%s %s: retired %d V-insns, golden %d" what (label im) retired g.g_icount

(* Instructions a VM retired: interpreted plus translated. *)
let vm_retired vm =
  Core.Vm.(
    vm.interp_insns
    + (match acc_exec vm with Some ex -> ex.stats.alpha_retired | None -> 0)
    + match straight_exec vm with Some ex -> ex.stats.alpha_retired | None -> 0)

let check_vm ~what im vm outcome =
  attempt ();
  let exit_code = match outcome with Core.Vm.Exit c -> Some c | _ -> None in
  check_run ~what im ~exit_code ~output:(Core.Vm.output vm)
    ~checksum:(Core.Vm.reg_checksum vm) ~retired:(vm_retired vm)

(* ---------- metrics ---------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

(* Exact for the calling domain; [Gc.quick_stat] sums every domain but
   only as of each domain's last minor collection. *)
let minor_words = Gc.minor_words

let peak_heap_mb () =
  float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Setup runs [setup_reps] times and reports the median of its scaled
   times (see calib.ml), with [setup_ticks] kernel samples before each
   repetition and after the last; a repetition is scaled by the samples
   just before and after it. The last result is the one the workload
   uses, earlier ones go to [release]. *)
let setup_reps = 5
let setup_ticks = 5

let timed_setup ?(release = ignore) f =
  Calib.reset ();
  let ticks () = for _ = 1 to setup_ticks do Calib.tick () done in
  let rec go k times =
    ticks ();
    let r, dt = time f in
    if k = 1 then (r, List.rev (dt :: times))
    else begin
      release r;
      go (k - 1) (dt :: times)
    end
  in
  let r, times = go setup_reps [] in
  ticks ();
  let f = Calib.factors ~batch:setup_ticks ~window:0 setup_reps in
  let scaled = median (List.mapi (fun i dt -> dt *. f.(i)) times) in
  Printf.eprintf "setup: %.4f s scaled, %.4f s unscaled (median of %d)\n%!" scaled (median times)
    setup_reps;
  Calib.reset ();
  (r, scaled)

(* ---------- scaled end-to-end timings ---------- *)

(* One timed operation of an end-to-end run: what kind of operation it
   was (guest image and backend or configuration), the V-insns it
   retired and its unscaled time. *)
type timed = { t_kind : string; t_insns : int; t_ms : float }

(* Kernel samples on each side of an operation that scale it. *)
let calib_window = 10

(* The timing metrics of an end-to-end run from its operations, in the
   order they ran, each preceded by one kernel tick with one more after
   the last. Each kind of operation counts once, at its median time:
   [guest_mips] is the V-insns of one operation of every kind over the
   sum of their median times, [p90_ms] the 90th percentile
   (interpolated) of the kinds' median times. [p50_ms] is the median of
   all operations. *)
let timing_metrics ~what ops =
  let n = List.length ops in
  let f = Calib.factors ~batch:1 ~window:calib_window n in
  let calc scale =
    let by = Hashtbl.create 64 in
    List.iteri
      (fun i o ->
        let ms = o.t_ms *. scale i in
        let insns, l = Option.value ~default:(o.t_insns, []) (Hashtbl.find_opt by o.t_kind) in
        Hashtbl.replace by o.t_kind (insns, ms :: l))
      ops;
    let kinds = Hashtbl.fold (fun _ (insns, l) acc -> (insns, median l) :: acc) by [] in
    let insns = List.fold_left (fun a (i, _) -> a + i) 0 kinds in
    let mips = ratio (float insns) (sum (List.map snd kinds) /. 1000.0) /. 1e6 in
    let all = List.mapi (fun i o -> o.t_ms *. scale i) ops in
    (mips, median all, quantile 90.0 (List.map snd kinds), Hashtbl.length by)
  in
  let mips, p50, p90, kinds = calc (fun i -> f.(i)) in
  let rmips, rp50, rp90, _ = calc (fun _ -> 1.0) in
  Printf.eprintf
    "%s: %d timed operations of %d kinds; kernel median %.3f ms (reference %.1f ms)\n\
     %s: scaled   guest_mips %.4f p50_ms %.4f p90_ms %.4f\n\
     %s: unscaled guest_mips %.4f p50_ms %.4f p90_ms %.4f\n%!"
    what n kinds (Calib.median_ms ()) Calib.ref_ms what mips p50 p90 what rmips rp50 rp90;
  [ m "guest_mips" "MV-insn/s" mips; m "p50_ms" "ms" p50; m "p90_ms" "ms" p90 ]

(* Run [pass 0], [pass 1], ... until the next one would end past
   [seconds], judged by the median [wall] so far; at least one. *)
let passes ~seconds ~wall pass =
  let t0 = now () in
  let rec go k acc =
    if acc <> [] && now () -. t0 +. median (List.map wall acc) > seconds then List.rev acc
    else go (k + 1) (pass k :: acc)
  in
  go 0 []

(* ---------- traced runs ---------- *)

(* Telemetry must be off whenever spans are not being recorded. *)
let assert_untraced () =
  if (not !Trace.on) && Obs.on () then failwith "telemetry is on in an untraced run"

(* Run [f] with Obs telemetry on, from zeroed counters; also returns the
   counters and spans it produced. *)
let with_telemetry f =
  Obs.reset ();
  Obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
  (r, Obs.collect ())

let obs_counter (snap : Obs.snapshot) name = float (Option.value ~default:0 (Obs.find snap name))

let obs_span_s (snap : Obs.snapshot) name =
  List.fold_left (fun a (n, _, s) -> if n = name then a +. s else a) 0.0 snap.spans

(* The paired halves of a traced run: [plans] run untraced, then again
   traced with telemetry on. Returns the untraced passes, the traced
   half's telemetry and the tracing overhead (wall-time ratio − 1). *)
let paired ~wall run_pass plans =
  let base = Trace.untraced "untraced.baseline" (fun () -> List.map run_pass plans) in
  let traced, obs = with_telemetry (fun () -> List.map run_pass plans) in
  (base, obs, (sum (List.map wall traced) /. sum (List.map wall base)) -. 1.0)
