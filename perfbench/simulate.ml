(* simulate: the paper's three timing configurations over every guest at
   a fixed moderate scale — (1) the original Alpha program through the
   out-of-order model, (2) the straightening DBT's translated code through
   the out-of-order model, (3) the accumulator DBT's translated code
   through the ILDP model, both models with their Table 1 parameters. The
   seed draws the order of each pass's runs; results do not depend on it. *)

open Common

let scale = 1

type config = Orig | Straight | Acc

let configs = [ Orig; Straight; Acc ]
let config_name = function Orig -> "ooo_orig" | Straight -> "ooo_straight" | Acc -> "ildp_acc"

(* What a timing run produced; checked against the stored values. *)
type stats = { cycles : int; insns : int; alpha : int; mispredicts : int }

let setup () = load_images (List.map (fun w -> (w, scale)) Workloads.all)

(* ---------- stored expected statistics ---------- *)

let load_expected path =
  let ic = open_in path in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %s %d %d %d %d" (fun g c cycles insns alpha mispredicts ->
             Hashtbl.replace tbl (g, c) { cycles; insns; alpha; mispredicts })
     done
   with End_of_file -> close_in ic);
  tbl

let write_expected path rows =
  let oc = open_out path in
  output_string oc
    "# guest config cycles committed_insns v_insns mispredicts (scale 1, Table 1 models)\n";
  List.iter
    (fun (g, c, s) -> Printf.fprintf oc "%s %s %d %d %d %d\n" g c s.cycles s.insns s.alpha s.mispredicts)
    rows;
  close_out oc

let check_stats expected im cfg s =
  let key = (im.guest.name, config_name cfg) in
  match Hashtbl.find_opt expected key with
  | None -> fail "simulate %s/%s: no stored expectation" (label im) (snd key)
  | Some e when e <> s ->
    fail "simulate %s/%s: cycles %d insns %d v-insns %d mispredicts %d, stored %d %d %d %d"
      (label im) (snd key) s.cycles s.insns s.alpha s.mispredicts e.cycles e.insns e.alpha
      e.mispredicts
  | Some _ -> ()

(* ---------- one timing run ---------- *)

let vm_run ~what im ~kind ~sink ~boundary =
  let vm = Core.Vm.create ~kind im.prog in
  let outcome = Trace.span ~req:(label im) "vm.run" (fun () -> Core.Vm.run ~sink ~boundary vm) in
  check_vm ~what im vm outcome

let orig_run ~what im ~sink =
  attempt ();
  let st = Alpha.Interp.create im.prog in
  let outcome = Trace.span ~req:(label im) "alpha.run_ev" (fun () -> Alpha.Interp.run_ev st ~sink) in
  check_run ~what im
    ~exit_code:(match outcome with Alpha.Interp.Exit c -> Some c | _ -> None)
    ~output:(Alpha.Interp.output st) ~checksum:(Alpha.Interp.reg_checksum st)
    ~retired:st.icount

let ooo_stats (m : Uarch.Ooo.t) =
  { cycles = Uarch.Ooo.cycles m; insns = m.n; alpha = m.alpha; mispredicts = m.pred.mispredicts }

let ildp_stats (m : Uarch.Ildp.t) =
  { cycles = Uarch.Ildp.cycles m; insns = m.n; alpha = m.alpha; mispredicts = m.pred.mispredicts }

let simulate im cfg =
  let what = "simulate/" ^ config_name cfg in
  match cfg with
  | Orig ->
    let m = Uarch.Ooo.create () in
    orig_run ~what im ~sink:(Uarch.Ooo.feed m);
    ooo_stats m
  | Straight ->
    let m = Uarch.Ooo.create () in
    vm_run ~what im ~kind:Core.Vm.Straight_only ~sink:(Uarch.Ooo.feed m)
      ~boundary:(fun () -> Uarch.Ooo.boundary m);
    ooo_stats m
  | Acc ->
    let m = Uarch.Ildp.create () in
    vm_run ~what im ~kind:Core.Vm.Acc ~sink:(Uarch.Ildp.feed m)
      ~boundary:(fun () -> Uarch.Ildp.boundary m);
    ildp_stats m

(* The same run with a sink that only counts events: the cost of event
   production without a timing model. Returns (events, V-insns). *)
let null_run im cfg =
  let n = ref 0 in
  let sink _ = incr n in
  let what = "simulate-null/" ^ config_name cfg in
  (match cfg with
  | Orig -> orig_run ~what im ~sink
  | Straight -> vm_run ~what im ~kind:Core.Vm.Straight_only ~sink ~boundary:ignore
  | Acc -> vm_run ~what im ~kind:Core.Vm.Acc ~sink ~boundary:ignore);
  !n

type op = { o_cfg : config; o_kind : string; o_ms : float; o_alpha : int }

let ops_of_pass rng images =
  let a = Array.of_list (List.concat_map (fun im -> List.map (fun c -> (im, c)) configs) images) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type pass = { ops : op list; wall : float; minor : float }

let run_pass expected plan =
  Trace.span "simulate.pass" @@ fun () ->
  assert_untraced ();
  let w0 = minor_words () and k0 = !Calib.words in
  let t0 = now () in
  let ops =
    List.map
      (fun (im, cfg) ->
        Calib.tick ();
        let s, dt = time (fun () -> simulate im cfg) in
        check_stats expected im cfg s;
        { o_cfg = cfg; o_kind = label im ^ "/" ^ config_name cfg; o_ms = dt *. 1000.0;
          o_alpha = s.alpha })
      plan
  in
  { ops; wall = now () -. t0; minor = minor_words () -. w0 -. (!Calib.words -. k0) }

let alpha ops = List.fold_left (fun a o -> a + o.o_alpha) 0 ops
let mips ops = ratio (float (alpha ops)) (sum (List.map (fun o -> o.o_ms /. 1000.0) ops)) /. 1e6
let of_cfg c ops = List.filter (fun o -> o.o_cfg = c) ops

let run ~expected ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let (images, expected), setup_s =
    timed_setup (fun () ->
        let images, _, _ = setup () in
        (images, load_expected expected))
  in
  let ps =
    passes ~seconds ~wall:(fun p -> p.wall) (fun _ -> run_pass expected (ops_of_pass rng images))
  in
  Calib.tick ();
  let ops = List.concat_map (fun p -> p.ops) ps in
  Printf.eprintf "simulate: %d passes\n%!" (List.length ps);
  let timing =
    timing_metrics ~what:"simulate"
      (List.map (fun o -> { t_kind = o.o_kind; t_insns = o.o_alpha; t_ms = o.o_ms }) ops)
  in
  [ m "setup_s" "s" setup_s ] @ timing
  @ [
      m "alloc_words_per_insn" "words" (sum (List.map (fun p -> p.minor) ps) /. float (alpha ops));
      m "peak_heap_mb" "MiB" (peak_heap_mb ());
    ]

let traced ~expected ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let (images, compile_s, interp_mips), expected =
    Trace.span "setup" (fun () -> (setup (), load_expected expected))
  in
  let plan = ops_of_pass rng images in
  let t0 = now () in
  ignore (Trace.span "warmup" (fun () -> run_pass expected plan));
  let n = max 1 (int_of_float (seconds /. 2.0 /. (now () -. t0))) in
  let plans = plan :: List.init (n - 1) (fun _ -> ops_of_pass rng images) in
  let base, obs, overhead = paired ~wall:(fun p -> p.wall) (run_pass expected) plans in
  let base_ops = List.concat_map (fun p -> p.ops) base in
  (* event production alone, one run per guest and configuration *)
  let null_s = ref 0.0 and events = ref 0 in
  Trace.span "simulate.nullsink" (fun () ->
      List.iter
        (fun im ->
          List.iter
            (fun cfg ->
              let n, dt = time (fun () -> null_run im cfg) in
              null_s := !null_s +. dt;
              events := !events + n)
            configs)
        images);
  let one_pass_alpha = float (alpha (List.hd base).ops) in
  let model_s = sum (List.map (fun o -> o.o_ms /. 1000.0) base_ops) /. float (List.length base) in
  ( [
      ("minic.compile_ms", compile_s *. 1000.0);
      ("alpha.interp_mips", interp_mips);
      ("sim.ooo_orig_mips", mips (of_cfg Orig base_ops));
      ("sim.ooo_straight_mips", mips (of_cfg Straight base_ops));
      ("sim.ildp_acc_mips", mips (of_cfg Acc base_ops));
      ("sim.nullsink_mips", one_pass_alpha /. !null_s /. 1e6);
      ("sim.model_share", 1.0 -. (!null_s /. model_s));
      ("sim.events_per_insn", float !events /. one_pass_alpha);
      ("gc.minor_words_per_insn", sum (List.map (fun p -> p.minor) base) /. float (alpha base_ops));
      ("trace.overhead_frac", overhead);
    ],
    obs )

(* Run every guest under every configuration once and store the
   statistics as the expected values. *)
let regenerate path =
  let images, _, _ = setup () in
  write_expected path
    (List.concat_map
       (fun im -> List.map (fun c -> (im.guest.name, config_name c, simulate im c)) configs)
       images)
