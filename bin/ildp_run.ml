(* ildp_run: execute workloads (or MiniC / Alpha-assembly files) under any
   of the simulated systems and report statistics.

     ildp_run gzip                         # DBT, modified ISA, dual-RAS
     ildp_run gzip --isa basic --ildp      # basic ISA + ILDP timing
     ildp_run prog.mc --interp             # plain interpretation
     ildp_run prog.s --straight --ooo      # straightened Alpha + OoO timing
     ildp_run gzip --disasm                # dump translated fragments
     ildp_run gzip mcf vortex --jobs 3     # several programs in parallel

   With several programs, each run is an independent job on a
   Harness.Pool worker domain; reports are buffered and printed in
   command-line order, so output does not depend on --jobs. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_program src scale =
  if Filename.check_suffix src ".mc" then Minic.compile (read_file src)
  else if Filename.check_suffix src ".s" then
    Alpha.Assembler.assemble (read_file src)
  else
    match Workloads.find src with
    | Some w -> Workloads.program ~scale w
    | None -> (
      (* the stress_* names are assembled generator programs, not MiniC *)
      match Stress.find_workload src with
      | Some build -> build ~scale
      | None ->
        Printf.eprintf
          "unknown workload %S (expected one of: %s, or a .mc/.s file)\n" src
          (String.concat " "
             (List.map (fun (w : Workloads.t) -> w.name) Workloads.all
             @ Stress.workload_names));
        exit 2)

let show_outcome buf = function
  | Core.Vm.Exit c -> Printf.bprintf buf "exit code      : %d\n" c
  | Core.Vm.Fault tr ->
    Printf.bprintf buf "trap           : %s\n"
      (Format.asprintf "%a" Alpha.Interp.pp_trap tr)
  | Core.Vm.Out_of_fuel -> Printf.bprintf buf "stopped        : out of fuel\n"

(* Run one program; the whole report goes into [buf] so several runs can
   proceed on worker domains without interleaving their output. *)
let run_one buf src scale isa chaining n_accs engine interp_only straight ildp
    ooo n_pe comm sample disasm fuel save_cache load_cache =
  let prog = load_program src scale in
  let isa = if isa = "basic" then Core.Config.Basic else Core.Config.Modified in
  let chaining =
    match chaining with
    | "no_pred" -> Core.Config.No_pred
    | "sw_pred" -> Core.Config.Sw_pred_no_ras
    | _ -> Core.Config.Sw_pred_ras
  in
  let engine =
    match engine with
    | "matched" -> Core.Config.Matched
    | _ -> Core.Config.Threaded
  in
  if interp_only then begin
    let st = Alpha.Interp.create prog in
    let m = if ooo then Some (Uarch.Ooo.create ()) else None in
    let outcome =
      match m with
      | Some m -> Alpha.Interp.run_ev ~fuel st ~sink:(Uarch.Ooo.feed m)
      | None -> Alpha.Interp.run ~fuel st
    in
    Buffer.add_string buf (Alpha.Interp.output st);
    (match outcome with
    | Alpha.Interp.Exit c -> Printf.bprintf buf "exit code      : %d\n" c
    | Fault tr ->
      Printf.bprintf buf "trap           : %s\n"
        (Format.asprintf "%a" Alpha.Interp.pp_trap tr)
    | Out_of_fuel -> Printf.bprintf buf "stopped        : out of fuel\n");
    Printf.bprintf buf "V-ISA insns    : %d\n" st.icount;
    Option.iter
      (fun m ->
        Uarch.Ooo.publish_obs m;
        Printf.bprintf buf "cycles         : %d\n" (Uarch.Ooo.cycles m);
        Printf.bprintf buf "V-ISA IPC      : %.3f\n" (Uarch.Ooo.v_ipc m))
      m
  end
  else begin
    let cfg = { Core.Config.default with isa; chaining; n_accs; engine } in
    let kind = if straight then Core.Vm.Straight_only else Core.Vm.Acc in
    let snapshot =
      match load_cache with
      | None -> None
      | Some path -> Some (Persist.Snapshot.read_file path)
    in
    let vm = Core.Vm.create ~cfg ?snapshot ~kind prog in
    let ildp_m =
      if ildp then
        Some
          (Uarch.Ildp.create
             ~params:{ Uarch.Ildp.default_params with n_pe; comm }
             ())
      else None
    in
    let ooo_m = if ooo && straight then Some (Uarch.Ooo.create ()) else None in
    (* --sample-interval wraps the ILDP model in the fast-forward
       sampling controller; 0 keeps the always-on detailed model *)
    let ildp_ctl =
      match ildp_m with
      | Some m when sample > 0 ->
        Some
          (Uarch.Fastfwd.create ~interval:sample ~warm:(Uarch.Ildp.warm m)
             ~feed:(Uarch.Ildp.feed m)
             ~boundary:(fun () -> Uarch.Ildp.boundary m)
             ~cycles:(fun () -> m.Uarch.Ildp.last_commit)
             ())
      | _ -> None
    in
    let sink =
      match (ildp_ctl, ildp_m, ooo_m) with
      | Some c, _, _ -> Some (Uarch.Fastfwd.feed c)
      | None, Some m, _ -> Some (Uarch.Ildp.feed m)
      | None, None, Some m -> Some (Uarch.Ooo.feed m)
      | None, None, None -> None
    in
    let boundary =
      match (ildp_ctl, ildp_m, ooo_m) with
      | Some c, _, _ -> Some (fun () -> Uarch.Fastfwd.boundary c)
      | None, Some m, _ -> Some (fun () -> Uarch.Ildp.boundary m)
      | None, None, Some m -> Some (fun () -> Uarch.Ooo.boundary m)
      | None, None, None -> None
    in
    let outcome = Core.Vm.run ?sink ?boundary ~fuel vm in
    Core.Vm.publish_obs vm;
    Option.iter Uarch.Ildp.publish_obs ildp_m;
    Option.iter Uarch.Ooo.publish_obs ooo_m;
    Buffer.add_string buf (Core.Vm.output vm);
    show_outcome buf outcome;
    Printf.bprintf buf "mode           : %s %s/%s\n"
      (if straight then "straightened-Alpha" else "accumulator-ISA")
      (Core.Config.isa_name isa)
      (Core.Config.chaining_name chaining);
    Option.iter
      (fun path -> Printf.bprintf buf "warm start     : %s\n" path)
      load_cache;
    Printf.bprintf buf "interp insns   : %d\n" vm.interp_insns;
    Printf.bprintf buf "superblocks    : %d\n" vm.superblocks;
    let st = Core.Vm.exec_stats vm in
    if straight then Printf.bprintf buf "translated exec: %d\n" st.i_exec
    else
      Printf.bprintf buf "I-ISA executed : %d (%d copy, %d chain)\n" st.i_exec
        st.by_class.(1) st.by_class.(2);
    Printf.bprintf buf "V-ISA in frags : %d\n" st.alpha_retired;
    if (not straight) && st.alpha_retired > 0 then
      Printf.bprintf buf "expansion      : %.3f\n"
        (float_of_int st.i_exec /. float_of_int st.alpha_retired);
    (match Core.Vm.acc_ctx vm with
    | Some ctx ->
      Printf.bprintf buf "DBT work/insn  : %.0f\n"
        (Core.Cost.per_translated_insn ctx.cost);
      if disasm then begin
        Printf.bprintf buf "\n--- translation cache ---\n";
        List.iter
          (fun (f : Core.Tcache.frag) ->
            Printf.bprintf buf "fragment @%#x (entered %d times):\n" f.v_start
              f.exec_count;
            for s = f.entry_slot to f.entry_slot + f.n_slots - 1 do
              Printf.bprintf buf "  %5d: %s\n" s
                (Accisa.Disasm.to_string (Core.Tcache.Acc.get ctx.tc s))
            done)
          (Core.Tcache.Acc.fragments ctx.tc)
      end
    | None -> ());
    (match (ildp_ctl, ildp_m) with
    | Some c, Some _ ->
      Uarch.Fastfwd.publish_obs c;
      Printf.bprintf buf "cycles         : %d (sampled, interval %d)\n"
        (Uarch.Fastfwd.cycles c) sample;
      Printf.bprintf buf "V-ISA IPC      : %.3f\n" (Uarch.Fastfwd.v_ipc c);
      Printf.bprintf buf "model skipped  : %.1f%% of insns\n"
        (100.0 *. Uarch.Fastfwd.skip_ratio c)
    | None, Some m ->
      Printf.bprintf buf "cycles         : %d\n" (Uarch.Ildp.cycles m);
      Printf.bprintf buf "V-ISA IPC      : %.3f\n" (Uarch.Ildp.v_ipc m);
      Printf.bprintf buf "native I-IPC   : %.3f\n" (Uarch.Ildp.ipc m)
    | _, None -> ());
    Option.iter
      (fun m ->
        Printf.bprintf buf "cycles         : %d\n" (Uarch.Ooo.cycles m);
        Printf.bprintf buf "V-ISA IPC      : %.3f\n" (Uarch.Ooo.v_ipc m))
      ooo_m;
    Option.iter
      (fun path ->
        Persist.Snapshot.write_file path (Core.Vm.save_snapshot vm);
        Printf.bprintf buf "cache saved    : %s\n" path)
      save_cache
  end

let run srcs scale isa chaining n_accs engine interp_only straight ildp ooo
    n_pe comm sample disasm fuel jobs telemetry save_cache load_cache =
  Option.iter (fun _ -> Obs.set_enabled true) telemetry;
  if (save_cache <> None || load_cache <> None) && List.length srcs > 1 then begin
    Printf.eprintf "--save-cache/--load-cache need exactly one program\n";
    exit 2
  end;
  if (save_cache <> None || load_cache <> None) && interp_only then begin
    Printf.eprintf "--save-cache/--load-cache make no sense with --interp\n";
    exit 2
  end;
  let report src =
    let buf = Buffer.create 1024 in
    run_one buf src scale isa chaining n_accs engine interp_only straight ildp
      ooo n_pe comm sample disasm fuel save_cache load_cache;
    Buffer.contents buf
  in
  let used_jobs = ref 1 in
  (* snapshot problems are user-facing (stale file, wrong flags), not bugs *)
  let report src =
    try report src
    with Persist.Snapshot.Error msg ->
      Printf.eprintf "snapshot error: %s\n" msg;
      exit 3
  in
  (match srcs with
  | [ src ] -> print_string (report src)
  | srcs ->
    (* one job per program; reports print in command-line order *)
    let jobs =
      if jobs > 0 then jobs
      else min (List.length srcs) (Domain.recommended_domain_count ())
    in
    used_jobs := jobs;
    Harness.Pool.with_pool ~jobs (fun pool ->
        srcs
        |> List.map (fun src ->
               (src, Harness.Pool.submit pool (fun () -> report src)))
        |> List.iter (fun (src, fut) ->
               Printf.printf "--- %s ---\n" src;
               print_string (Harness.Pool.await fut))));
  Option.iter
    (fun path ->
      Obs.Envelope.write_telemetry path ~jobs:!used_jobs (Obs.collect ());
      Printf.printf "wrote %s\n" path)
    telemetry

let cmd =
  let srcs =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PROGRAM"
           ~doc:"Workload names, or .mc (MiniC) / .s (Alpha assembly) files. \
                 Several programs run in parallel (see --jobs).")
  in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload scale.") in
  let isa =
    Arg.(value & opt string "modified" & info [ "isa" ]
           ~doc:"Target I-ISA: basic or modified.")
  in
  let chaining =
    Arg.(value & opt string "sw_pred_ras" & info [ "chaining" ]
           ~doc:"Chaining: no_pred, sw_pred or sw_pred_ras.")
  in
  let n_accs = Arg.(value & opt int 4 & info [ "accs" ] ~doc:"Logical accumulators.") in
  let engine =
    Arg.(value & opt string "threaded" & info [ "engine" ]
           ~doc:"Sink-less execution engine: threaded or matched.")
  in
  let interp = Arg.(value & flag & info [ "interp" ] ~doc:"Interpret only (no DBT).") in
  let straight =
    Arg.(value & flag & info [ "straight" ] ~doc:"Code-straightening-only DBT.")
  in
  let ildp = Arg.(value & flag & info [ "ildp" ] ~doc:"Attach the ILDP timing model.") in
  let ooo = Arg.(value & flag & info [ "ooo" ] ~doc:"Attach the superscalar timing model.") in
  let n_pe = Arg.(value & opt int 8 & info [ "pes" ] ~doc:"ILDP processing elements.") in
  let comm = Arg.(value & opt int 0 & info [ "comm" ] ~doc:"ILDP communication latency.") in
  let sample =
    Arg.(value & opt int 0 & info [ "sample-interval" ]
           ~doc:"With --ildp: feed the timing model only a warm-up + detail \
                 window out of every $(docv) committed instructions and \
                 back-charge the rest at the measured rate. 0 (default) \
                 keeps the always-on detailed model.")
  in
  let disasm = Arg.(value & flag & info [ "disasm" ] ~doc:"Dump translated fragments.") in
  let fuel =
    Arg.(value & opt int 200_000_000 & info [ "fuel" ] ~doc:"Instruction budget.")
  in
  let jobs =
    Arg.(value & opt int 0 & info [ "jobs" ]
           ~doc:"Worker domains when running several programs (default: \
                 recommended domain count).")
  in
  let telemetry =
    Arg.(value & opt (some string) None & info [ "telemetry-json" ]
           ~doc:"Enable telemetry and write the counter/span export here.")
  in
  let save_cache =
    Arg.(value & opt (some string) None & info [ "save-cache" ]
           ~doc:"After the run, save the translation cache (with its \
                 hotness profile) as a snapshot here. Single program only.")
  in
  let load_cache =
    Arg.(value & opt (some string) None & info [ "load-cache" ]
           ~doc:"Warm-start the VM from a snapshot saved with --save-cache. \
                 The snapshot must match the program and every translation \
                 flag, or it is rejected. Single program only.")
  in
  Cmd.v
    (Cmd.info "ildp_run" ~doc:"Run programs under the ILDP co-designed VM")
    Term.(
      const run $ srcs $ scale $ isa $ chaining $ n_accs $ engine $ interp
      $ straight $ ildp $ ooo $ n_pe $ comm $ sample $ disasm $ fuel $ jobs
      $ telemetry $ save_cache $ load_cache)

let () = exit (Cmd.eval cmd)
