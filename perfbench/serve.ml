(* serve: sessions arrive open-loop into one Service.Daemon at a fixed
   offered rate, with seeded Poisson arrivals, then a short saturating
   phase paced only by admission backpressure. Images are every guest at
   [scales], drawn with seeded Zipf popularity; the first request for an
   image builds cold and publishes its snapshot, later ones warm-start.
   The generator runs on the main domain and only waits and submits.

   The daemon has one worker domain. With two on a 2-core host the tail
   latency of identical runs moved by 2x from run to run, so cold builds
   and warm restores share one worker's queue instead of running side by
   side; [taskpool.scaling_2dom] in the traced run measures two domains. *)

open Common
module D = Service.Daemon

let scales = [ 1; 2 ]
let jobs = 1
let capacity = 16

(* About a third of the one-worker saturating throughput measured at the
   seed commit on a 2-core host; see README.md. *)
let rate = 6.0
let p90_limit_ms = 150.0

let zipf_s = 1.0
let open_share = 0.85
let tenant = "bench"

(* Per-session fuel cap: far above any image's instruction count, so
   every session runs to its exit. *)
let session_fuel = 1_000_000_000

let new_daemon () =
  D.create ~jobs ~capacity
    ~tenants:[ (tenant, { D.q_fuel = max_int / 2; q_image_bytes = max_int }) ]
    ()

let setup () =
  let images, compile_s, interp_mips =
    load_images (List.concat_map (fun scale -> List.map (fun w -> (w, scale)) Workloads.all) scales)
  in
  let daemon = Trace.span "service.create" new_daemon in
  (Array.of_list images, daemon, compile_s, interp_mips)

(* ---------- seeded inputs ---------- *)

(* Seeded draws with Zipf popularity. The rank order is fixed — every
   guest at the smallest scale first, in registry order, then the next
   scale — so the seed moves which image arrives when, not how heavy the
   popular images are. *)
let zipf rng images =
  let n = Array.length images in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float (r + 1) ** zipf_s));
    cum.(r) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let r = ref 0 in
    while cum.(!r) < u do incr r done;
    images.(!r)

(* Poisson arrival offsets (seconds from phase start) up to [horizon]. *)
let arrivals rng ~horizon =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t > horizon then List.rev acc else go t (t :: acc)
  in
  go 0.0 []

(* ---------- sessions ---------- *)

type sess = {
  req : string;
  im : image;
  due : float;
  call : float;  (* when the generator called submit *)
  ret : float;  (* when submit returned *)
  handle : D.session option;
}

type done_ = { s : sess; res : D.result option; lat_ms : float; finish : float }

let submit d ~req im ~due =
  let call = now () in
  let r =
    Trace.span ~req "service.submit" (fun () ->
        D.submit d { D.rq_tenant = tenant; rq_label = req; rq_prog = im.prog; rq_fuel = session_fuel })
  in
  let handle = match r with Ok h -> Some h | Error msg -> fail "serve %s refused: %s" req msg; None in
  { req; im; due; call; ret = now (); handle }

let collect sessions =
  Trace.span "service.wait" @@ fun () ->
  List.map
    (fun s ->
      attempt ();
      match s.handle with
      | None -> { s; res = None; lat_ms = 0.0; finish = s.ret }
      | Some h ->
        let res = D.wait h in
        let lat_ms = ((s.ret -. s.due) *. 1000.0) +. res.s_latency_ms in
        let finish = s.due +. (lat_ms /. 1000.0) in
        Trace.request ~name:(if res.s_warm then "session.warm" else "session.cold")
          ~req:s.req ~t0:s.due ~t1:finish;
        (match res.s_reason with
        | D.S_exit c ->
          check_run ~what:"serve" s.im ~exit_code:(Some c) ~output:res.s_output
            ~checksum:res.s_checksum ~retired:res.s_fuel_used
        | D.S_fault msg -> fail "serve %s: %s" (label s.im) msg
        | D.S_fuel | D.S_quota -> fail "serve %s: out of fuel" (label s.im)
        | D.S_cancelled -> fail "serve %s: cancelled" (label s.im));
        { s; res = Some res; lat_ms; finish })
    sessions

(* The generator waits for each arrival without blocking. While the main
   domain is blocked, every minor collection on the worker also waits for
   the main domain's backup thread to be scheduled on an idle core; on a
   2-core VM that made sessions 25% slower and their median latency move
   by 30% between identical runs. *)
let spin_until t =
  while now () < t do
    for _ = 1 to 200 do
      Domain.cpu_relax ()
    done
  done

let open_loop d pick rng ~horizon =
  Trace.span "serve.open_loop" @@ fun () ->
  let plan = List.map (fun t -> (t, pick ())) (arrivals rng ~horizon) in
  let t0 = now () in
  let sessions =
    List.mapi
      (fun i (off, im) ->
        let due = t0 +. off in
        let wait = due -. now () in
        if wait > 0.0 then Trace.span "gen.wait" (fun () -> spin_until due);
        submit d ~req:(Printf.sprintf "%s#%d" (label im) i) im ~due)
      plan
  in
  (t0, collect sessions)

(* Back-to-back submission for [horizon] seconds, or of exactly [count]
   sessions when given. *)
let saturate d pick ?count ~horizon () =
  Trace.span "serve.saturate" @@ fun () ->
  let t0 = now () in
  let rec go i acc =
    let more = match count with Some n -> i < n | None -> now () -. t0 < horizon in
    if not more then List.rev acc
    else
      let im = pick () in
      go (i + 1) (submit d ~req:(Printf.sprintf "%s#s%d" (label im) i) im ~due:(now ()) :: acc)
  in
  let ds = collect (go 0 []) in
  let wall = List.fold_left (fun a x -> max a x.finish) t0 ds -. t0 in
  (ds, t0, wall)

let retired ds =
  List.fold_left (fun a x -> match x.res with Some r -> a + r.s_fuel_used | None -> a) 0 ds

type scenario = {
  opened : done_ list;
  open_t0 : float;
  sat : done_ list;
  sat_t0 : float;
  sat_wall : float;
  minor : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  daemon : D.stats;
}

let scenario d images ~seed ~seconds ?sat_count () =
  assert_untraced ();
  let rng = Random.State.make [| seed |] in
  let pick = zipf rng images in
  let g0 = Gc.quick_stat () in
  let open_t0, opened = open_loop d pick rng ~horizon:(seconds *. open_share) in
  let sat, sat_t0, sat_wall = saturate d pick ?count:sat_count ~horizon:(seconds *. (1.0 -. open_share)) () in
  let g1 = Gc.quick_stat () in
  let daemon = D.stats d in
  Trace.span "service.shutdown" (fun () -> D.shutdown d);
  { opened; open_t0; sat; sat_t0; sat_wall;
    minor = g1.minor_words -. g0.minor_words;
    promoted = g1.promoted_words -. g0.promoted_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    daemon }

(* V-insns per second of worker busy time. The daemon's one worker
   serves sessions in admission order, so a session's service starts at
   the later of its admission and the previous session's completion. *)
let busy_mips ds =
  let _, busy, insns =
    List.fold_left
      (fun (prev, busy, insns) x ->
        match x.res with
        | Some r ->
          let start = max x.s.ret prev in
          (x.finish, busy +. (x.finish -. start), insns + r.s_fuel_used)
        | None -> (prev, busy, insns))
      (neg_infinity, 0.0, 0) ds
  in
  float insns /. busy /. 1e6

let lats ?warm ds =
  List.filter_map
    (fun x ->
      match x.res with
      | Some r when warm = None || warm = Some r.s_warm -> Some x.lat_ms
      | _ -> None)
    ds

let run ~seed ~seconds =
  let (images, d, _, _), setup_s =
    timed_setup ~release:(fun (_, d, _, _) -> D.shutdown d) setup
  in
  let sc = scenario d images ~seed ~seconds () in
  let l = lats sc.opened in
  let p90 = percentile 90.0 l in
  Printf.eprintf
    "serve: %d open-loop sessions at %.0f/s (latency samples), p90 %.1f ms vs limit %.0f ms; %d saturating sessions\n%!"
    (List.length l) rate p90 p90_limit_ms (List.length sc.sat);
  [
    m "setup_s" "s" setup_s;
    m "guest_mips" "MV-insn/s" (busy_mips (sc.opened @ sc.sat));
    m "alloc_words_per_insn" "words" (sc.minor /. float (retired sc.opened + retired sc.sat));
    m "peak_heap_mb" "MiB" (peak_heap_mb ());
    m "p50_ms" "ms" (median l);
    m "p90_ms" "ms" p90;
  ]

(* ---------- traced run: layer probes ---------- *)

(* Standalone cold build and warm restore of every image, through the
   persist layer: what one cold or warm session costs with no queue. *)
type probe = {
  p_im : image;
  cold_ms : float;  (* create + cold run *)
  save_ms : float;
  encode_ms : float;
  decode_ms : float;
  restore_ms : float;  (* create ~snapshot, with prewarm *)
  warm_ms : float;  (* warm run after restore *)
  bytes : int;
  units : int;
  translated : int;
}

let probe im =
  let req = label im in
  let ms f =
    let r, dt = time f in
    (r, dt *. 1000.0)
  in
  let (vm, outcome), cold_ms =
    ms (fun () ->
        let vm = Trace.span ~req "vm.create" (fun () -> Core.Vm.create ~kind:Core.Vm.Acc im.prog) in
        (vm, Trace.span ~req "vm.run" (fun () -> Core.Vm.run vm)))
  in
  check_vm ~what:"serve-probe-cold" im vm outcome;
  let snap, save_ms = ms (fun () -> Trace.span ~req "persist.save" (fun () -> Core.Vm.save_snapshot vm)) in
  let s, encode_ms =
    ms (fun () -> Trace.span ~req "persist.encode" (fun () -> Persist.Snapshot.to_string snap))
  in
  let snap', decode_ms =
    ms (fun () -> Trace.span ~req "persist.decode" (fun () -> Persist.Snapshot.of_string s))
  in
  let wvm, restore_ms =
    ms (fun () ->
        Trace.span ~req "persist.restore" (fun () ->
            Core.Vm.create ~snapshot:snap' ~kind:Core.Vm.Acc im.prog))
  in
  let outcome, warm_ms = ms (fun () -> Trace.span ~req "vm.run" (fun () -> Core.Vm.run wvm)) in
  check_vm ~what:"serve-probe-warm" im wvm outcome;
  let cost = Core.Vm.cost vm in
  { p_im = im; cold_ms; save_ms; encode_ms; decode_ms; restore_ms; warm_ms;
    bytes = String.length s; units = cost.translate_units; translated = cost.translated_insns }

let traced ~seed ~seconds =
  let images, d0, compile_s, interp_mips = Trace.span "setup" setup in
  let half = seconds /. 2.0 in
  let base =
    Trace.untraced "untraced.baseline" (fun () -> scenario d0 images ~seed ~seconds:half ())
  in
  let d1 = Trace.span "service.create" new_daemon in
  let sc, obs =
    with_telemetry (fun () ->
        scenario d1 images ~seed ~seconds:half ~sat_count:(List.length base.sat) ())
  in
  let probes = Trace.span "serve.probe" (fun () -> Array.to_list (Array.map probe images)) in
  let find im = List.find (fun p -> p.p_im == im) probes in
  let mean_of f = mean (List.map f probes) in
  let standalone =
    List.fold_left
      (fun a x ->
        match x.res with
        | Some r ->
          let p = find x.s.im in
          a +. if r.s_warm then p.restore_ms +. p.warm_ms else p.cold_ms +. p.save_ms
        | None -> a)
      0.0 base.opened
  in
  let base_wall =
    List.fold_left (fun a x -> max a x.finish) base.open_t0 base.opened -. base.open_t0
  in
  let reg = base.daemon.registry in
  let cold_l = lats ~warm:false base.opened in
  let all = base.opened @ base.sat in
  let ret = float (retired all) in
  ( [
      ("minic.compile_ms", compile_s *. 1000.0);
      ("alpha.interp_mips", interp_mips);
      ("vm.cold_ms", mean_of (fun p -> p.cold_ms));
      ("vm.warm_ms", mean_of (fun p -> p.warm_ms));
      ("vm.startup_ms", mean_of (fun p -> p.cold_ms -. p.warm_ms));
      ( "translate.units_per_insn",
        float (List.fold_left (fun a p -> a + p.units) 0 probes)
        /. float (List.fold_left (fun a p -> a + p.translated) 0 probes) );
      ("translate.span_ms", obs_span_s obs "translate" *. 1000.0);
      ("persist.save_ms", mean_of (fun p -> p.save_ms));
      ("persist.restore_ms", mean_of (fun p -> p.restore_ms));
      ("persist.encode_ms", mean_of (fun p -> p.encode_ms));
      ("persist.decode_ms", mean_of (fun p -> p.decode_ms));
      ("persist.snapshot_kb", mean_of (fun p -> float p.bytes /. 1024.0));
      ("service.admit_wait_ms", mean (List.map (fun x -> (x.s.ret -. x.s.call) *. 1000.0) base.opened));
      ("service.late_ms", mean (List.map (fun x -> max 0.0 (x.s.call -. x.s.due) *. 1000.0) base.opened));
      ("service.warm_p50_ms", median (lats ~warm:true base.opened));
      ("service.warm_p99_ms", percentile 99.0 (lats ~warm:true base.opened));
      ("service.cold_p50_ms", median cold_l);
      ("service.cold_max_ms", percentile 100.0 cold_l);
      ("service.warm_hit_ratio", ratio (float reg.warm_hits) (float (reg.warm_hits + reg.cold_builds)));
      ("service.build_waits", float reg.build_waits);
      ("service.utilization", standalone /. 1000.0 /. (base_wall *. float jobs));
      ("service.sessions_per_s", float (List.length base.sat) /. base.sat_wall);
      ("gc.minor_words_per_insn", base.minor /. ret);
      ("gc.promoted_words_per_insn", base.promoted /. ret);
      ("gc.minor_collections", float base.minor_gcs);
      ("gc.major_collections", float base.major_gcs);
      ("trace.overhead_frac", (sc.sat_wall /. base.sat_wall) -. 1.0);
    ],
    obs )
