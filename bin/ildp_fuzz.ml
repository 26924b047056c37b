(* ildp_fuzz: seed-sharded differential fuzzing of the DBT against the
   golden Alpha interpreter.

     ildp_fuzz --count 2000 --jobs 4        # 2000 programs, all modes
     ildp_fuzz --minutes 5                  # stop submitting after 5 min
     ildp_fuzz --modes acc/basic/no_pred    # one mode only
     ildp_fuzz --flush-every 3              # inject Vm.flush at boundaries

   Every seed generates one program (Oracle.Gen) which is then executed in
   lockstep (Oracle.Lockstep) under every selected ISA/chaining mode, with
   full architected-state comparison at every translated-segment boundary.
   On divergence the program's block list is minimized with delta
   debugging (Oracle.Shrink) and the offending fragment is reported with
   its disassembly. Seeds are sharded over a Harness.Pool; the JSON
   summary (stdout, or --json FILE) aggregates coverage: trap kinds hit,
   exit reasons seen, fragments formed, dual-RAS traffic.

   Exit status: 0 = no divergence, 1 = divergence(s) found. *)

open Cmdliner

type totals = {
  mutable runs : int;
  mutable retired : int;
  mutable boundaries : int;
  mutable insn_checks : int;
  mutable superblocks : int;
  mutable branch_exits : int;
  mutable pal_exits : int;
  mutable dispatch_misses : int;
  mutable trap_recoveries : int;
  mutable flushes : int;
  mutable dras_hits : int;
  mutable dras_misses : int;
  mutable o_exit : int;
  mutable o_trap : int;
  mutable o_fuel : int;
  mutable t_unaligned : int;
  mutable t_mem_fault : int;
  mutable t_illegal : int;
}

let totals_zero () =
  { runs = 0; retired = 0; boundaries = 0; insn_checks = 0; superblocks = 0;
    branch_exits = 0; pal_exits = 0; dispatch_misses = 0; trap_recoveries = 0;
    flushes = 0; dras_hits = 0; dras_misses = 0; o_exit = 0; o_trap = 0;
    o_fuel = 0; t_unaligned = 0; t_mem_fault = 0; t_illegal = 0 }

let add_cov t (c : Oracle.Lockstep.coverage) =
  t.runs <- t.runs + 1;
  t.retired <- t.retired + c.retired;
  t.boundaries <- t.boundaries + c.boundaries;
  t.insn_checks <- t.insn_checks + c.insn_checks;
  t.superblocks <- t.superblocks + c.superblocks;
  t.branch_exits <- t.branch_exits + c.branch_exits;
  t.pal_exits <- t.pal_exits + c.pal_exits;
  t.dispatch_misses <- t.dispatch_misses + c.dispatch_misses;
  t.trap_recoveries <- t.trap_recoveries + c.trap_recoveries;
  t.flushes <- t.flushes + c.flushes;
  t.dras_hits <- t.dras_hits + c.dras_hits;
  t.dras_misses <- t.dras_misses + c.dras_misses;
  (match c.trap with
  | Some "unaligned" -> t.t_unaligned <- t.t_unaligned + 1
  | Some "mem_fault" -> t.t_mem_fault <- t.t_mem_fault + 1
  | Some "illegal" -> t.t_illegal <- t.t_illegal + 1
  | _ -> ());
  if c.outcome = "fuel" then t.o_fuel <- t.o_fuel + 1
  else if c.trap <> None then t.o_trap <- t.o_trap + 1
  else t.o_exit <- t.o_exit + 1

let merge a b =
  a.runs <- a.runs + b.runs;
  a.retired <- a.retired + b.retired;
  a.boundaries <- a.boundaries + b.boundaries;
  a.insn_checks <- a.insn_checks + b.insn_checks;
  a.superblocks <- a.superblocks + b.superblocks;
  a.branch_exits <- a.branch_exits + b.branch_exits;
  a.pal_exits <- a.pal_exits + b.pal_exits;
  a.dispatch_misses <- a.dispatch_misses + b.dispatch_misses;
  a.trap_recoveries <- a.trap_recoveries + b.trap_recoveries;
  a.flushes <- a.flushes + b.flushes;
  a.dras_hits <- a.dras_hits + b.dras_hits;
  a.dras_misses <- a.dras_misses + b.dras_misses;
  a.o_exit <- a.o_exit + b.o_exit;
  a.o_trap <- a.o_trap + b.o_trap;
  a.o_fuel <- a.o_fuel + b.o_fuel;
  a.t_unaligned <- a.t_unaligned + b.t_unaligned;
  a.t_mem_fault <- a.t_mem_fault + b.t_mem_fault;
  a.t_illegal <- a.t_illegal + b.t_illegal

type report = {
  r_seed : int;
  r_mode : string;
  r_text : string; (* rendered divergence (mismatches + fragment disasm) *)
  r_blocks : int; (* minimized block count *)
  r_source : string; (* minimized program source *)
}

(* One seed under one mode; on divergence, minimize the block list with
   ddmin (the predicate re-runs the oracle on the rendered subset) and
   re-derive the report from the minimized program. *)
let run_seed_mode ~granularity ~threaded ~flush_every ~tcache_max_slots
    ~warm_start seed mode (prog : Oracle.Gen.program) =
  let go blocks =
    Oracle.Lockstep.run ~granularity ~threaded ~flush_every ~tcache_max_slots
      ~warm_start ~mode
      (Oracle.Gen.assemble ~blocks prog)
  in
  match go prog.blocks with
  | Oracle.Lockstep.Agree c -> Ok c
  | Oracle.Lockstep.Diverge _ ->
    let still_fails blocks =
      match go blocks with
      | Oracle.Lockstep.Diverge _ -> true
      | Oracle.Lockstep.Agree _ | (exception _) -> false
    in
    let min_blocks = Oracle.Shrink.minimize ~still_fails prog.blocks in
    let d =
      match go min_blocks with
      | Oracle.Lockstep.Diverge d -> d
      | Oracle.Lockstep.Agree _ ->
        (* should not happen: ddmin only returns failing lists *)
        assert false
    in
    Error
      {
        r_seed = seed;
        r_mode = Oracle.Lockstep.mode_name mode;
        r_text = Format.asprintf "%a" Oracle.Lockstep.pp_divergence d;
        r_blocks = List.length min_blocks;
        r_source = Oracle.Gen.source ~blocks:min_blocks prog;
      }

(* A shard of contiguous seeds processed on one worker domain. *)
let run_shard ~gen ~modes ~granularity ~threaded ~flush_every
    ~tcache_max_slots ~warm_start ~deadline seeds =
  let tot = totals_zero () in
  let reports = ref [] in
  let errors = ref [] in
  let processed = ref 0 in
  List.iter
    (fun seed ->
      if Unix.gettimeofday () < deadline then begin
        incr processed;
        let prog : Oracle.Gen.program = gen ~seed in
        (* rotate flush injection through part of the seed space so the
           flush path is always covered, unless forced via --flush-every *)
        let flush_every =
          if flush_every > 0 then flush_every
          else if seed mod 4 = 0 then 3
          else 0
        in
        List.iter
          (fun mode ->
            match
              run_seed_mode ~granularity ~threaded ~flush_every
                ~tcache_max_slots ~warm_start seed mode prog
            with
            | Ok c -> add_cov tot c
            | Error r -> reports := r :: !reports
            | exception e ->
              errors :=
                Printf.sprintf "seed %d %s: %s" seed
                  (Oracle.Lockstep.mode_name mode)
                  (Printexc.to_string e)
                :: !errors)
          modes
      end)
    seeds;
  (!processed, tot, List.rev !reports, List.rev !errors)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json oc ~programs ~seed ~count ~jobs ~modes ~threaded ~stress
    ~warm_start ~tot ~reports ~errors =
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"ildp-dbt-fuzz/1\",\n";
  p "  \"engine\": \"%s\",\n"
    (if threaded then "threaded" else "instrumented");
  p "  \"generator\": \"%s\",\n" (if stress then "stress" else "oracle");
  p "  \"warm_start\": %b,\n" warm_start;
  p "  \"programs\": %d,\n" programs;
  p "  \"seed_range\": [%d, %d],\n" seed (seed + count - 1);
  p "  \"jobs\": %d,\n" jobs;
  p "  \"modes\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun m -> "\"" ^ Oracle.Lockstep.mode_name m ^ "\"")
          modes));
  p "  \"runs\": %d,\n" tot.runs;
  p "  \"divergences\": %d,\n" (List.length reports);
  p "  \"errors\": %d,\n" (List.length errors);
  p "  \"coverage\": {\n";
  p "    \"v_insns_retired\": %d,\n" tot.retired;
  p "    \"boundaries_compared\": %d,\n" tot.boundaries;
  p "    \"insn_checks\": %d,\n" tot.insn_checks;
  p "    \"superblocks\": %d,\n" tot.superblocks;
  p "    \"branch_exits\": %d,\n" tot.branch_exits;
  p "    \"pal_exits\": %d,\n" tot.pal_exits;
  p "    \"dispatch_misses\": %d,\n" tot.dispatch_misses;
  p "    \"trap_recoveries\": %d,\n" tot.trap_recoveries;
  p "    \"flushes\": %d,\n" tot.flushes;
  p "    \"dras_hits\": %d,\n" tot.dras_hits;
  p "    \"dras_misses\": %d,\n" tot.dras_misses;
  p "    \"outcomes\": { \"exit\": %d, \"trap\": %d, \"fuel\": %d },\n"
    tot.o_exit tot.o_trap tot.o_fuel;
  p "    \"traps\": { \"unaligned\": %d, \"mem_fault\": %d, \"illegal\": %d }\n"
    tot.t_unaligned tot.t_mem_fault tot.t_illegal;
  p "  },\n";
  p "  \"reports\": [\n";
  List.iteri
    (fun i r ->
      p
        "    { \"seed\": %d, \"mode\": \"%s\", \"minimized_blocks\": %d,\n\
        \      \"divergence\": \"%s\",\n\
        \      \"source\": \"%s\" }%s\n"
        r.r_seed (json_escape r.r_mode) r.r_blocks (json_escape r.r_text)
        (json_escape r.r_source)
        (if i < List.length reports - 1 then "," else ""))
    reports;
  p "  ],\n";
  p "  \"error_messages\": [%s]\n"
    (String.concat ", "
       (List.map (fun e -> "\"" ^ json_escape e ^ "\"") errors));
  p "}\n"

(* One file per divergence, named so a directory aggregating several fuzz
   arms stays collision-free: the minimized source plus the rendered
   divergence, ready to re-run with `ildp_run FILE.s`. *)
let write_repros dir ~threaded ~stress ~warm_start reports =
  if reports <> [] then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let arm =
      String.concat ""
        [ (if threaded then "-threaded" else "");
          (if stress then "-stress" else "");
          (if warm_start then "-warm" else "") ]
    in
    List.iter
      (fun r ->
        let stem =
          Printf.sprintf "seed%d-%s%s" r.r_seed
            (String.map (function '/' -> '_' | c -> c) r.r_mode)
            arm
        in
        let oc = open_out (Filename.concat dir (stem ^ ".s")) in
        output_string oc r.r_source;
        close_out oc;
        let oc = open_out (Filename.concat dir (stem ^ ".divergence.txt")) in
        Printf.fprintf oc "seed %d mode %s, minimized to %d blocks\n\n%s\n"
          r.r_seed r.r_mode r.r_blocks r.r_text;
        close_out oc)
      reports
  end

let run count seed minutes jobs modes_arg flush_every tcache_cap per_insn
    threaded stress warm_start json_path repro_dir quiet =
  let modes =
    if modes_arg = "all" then Oracle.Lockstep.all_modes
    else
      String.split_on_char ',' modes_arg
      |> List.map (fun name ->
             match Oracle.Lockstep.mode_of_name (String.trim name) with
             | Some m -> m
             | None ->
               Printf.eprintf "unknown mode %S (known: %s)\n" name
                 (String.concat " "
                    (List.map Oracle.Lockstep.mode_name
                       Oracle.Lockstep.all_modes));
               exit 2)
  in
  let granularity =
    if per_insn then Oracle.Lockstep.Per_insn else Oracle.Lockstep.Boundary
  in
  let jobs =
    if jobs > 0 then jobs else Domain.recommended_domain_count ()
  in
  let deadline =
    Unix.gettimeofday ()
    +. (if minutes > 0.0 then minutes *. 60.0 else infinity)
  in
  let gen = if stress then Stress.generate else Oracle.Gen.generate in
  let tcache_max_slots = if tcache_cap > 0 then tcache_cap else max_int in
  let seeds = List.init count (fun i -> seed + i) in
  (* contiguous shards, a few per worker so early finishers stay busy *)
  let n_shards = max 1 (min count (jobs * 4)) in
  let shards = Array.make n_shards [] in
  List.iteri (fun i s -> shards.(i mod n_shards) <- s :: shards.(i mod n_shards)) seeds;
  let t0 = Unix.gettimeofday () in
  let results =
    Harness.Pool.with_pool ~jobs (fun pool ->
        Array.to_list shards
        |> List.map (fun shard ->
               Harness.Pool.submit pool (fun () ->
                   run_shard ~gen ~modes ~granularity ~threaded
                     ~flush_every ~tcache_max_slots ~warm_start ~deadline
                     (List.rev shard)))
        |> List.map (Harness.Pool.await))
  in
  let tot = totals_zero () in
  let programs = ref 0 in
  let reports = ref [] in
  let errors = ref [] in
  List.iter
    (fun (n, t, rs, es) ->
      programs := !programs + n;
      merge tot t;
      reports := !reports @ rs;
      errors := !errors @ es)
    results;
  let reports = List.sort (fun a b -> compare a.r_seed b.r_seed) !reports in
  let elapsed = Unix.gettimeofday () -. t0 in
  if not quiet then begin
    Printf.eprintf "fuzz: %d programs x %d modes = %d runs in %.1fs (%d jobs)\n"
      !programs (List.length modes) tot.runs elapsed jobs;
    Printf.eprintf
      "fuzz: %d boundaries compared, %d superblocks, %d trap recoveries, %d \
       flushes\n"
      tot.boundaries tot.superblocks tot.trap_recoveries tot.flushes;
    List.iter
      (fun r ->
        Printf.eprintf "\n=== seed %d [%s] (minimized to %d blocks) ===\n%s\n\
                        --- minimized source ---\n%s\n"
          r.r_seed r.r_mode r.r_blocks r.r_text r.r_source)
      reports;
    List.iter (fun e -> Printf.eprintf "ERROR: %s\n" e) !errors
  end;
  let emit oc =
    write_json oc ~programs:!programs ~seed ~count ~jobs ~modes ~threaded
      ~stress ~warm_start ~tot ~reports ~errors:!errors
  in
  (match json_path with
  | "-" -> emit stdout
  | path ->
    let oc = open_out path in
    emit oc;
    close_out oc);
  Option.iter
    (fun dir ->
      write_repros dir ~threaded ~stress ~warm_start reports)
    repro_dir;
  if reports <> [] || !errors <> [] then exit 1

let cmd =
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~doc:"Number of seeds to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed.") in
  let minutes =
    Arg.(value & opt float 0.0 & info [ "minutes" ]
           ~doc:"Wall-clock budget; seeds not started by then are skipped \
                 (0 = unlimited).")
  in
  let jobs =
    Arg.(value & opt int 0 & info [ "jobs" ]
           ~doc:"Worker domains (default: recommended domain count).")
  in
  let modes =
    Arg.(value & opt string "all" & info [ "modes" ]
           ~doc:"Comma-separated mode names, or 'all'.")
  in
  let flush_every =
    Arg.(value & opt int 0 & info [ "flush-every" ]
           ~doc:"Inject Vm.flush every N segment boundaries in every run \
                 (default: every 3rd boundary on a quarter of the seeds).")
  in
  let tcache_cap =
    Arg.(value & opt int 0 & info [ "tcache-cap" ]
           ~doc:"Bound the translation cache to N slots so capacity-policy \
                 whole-cache flushes (and the closure recompilation they \
                 force) run under lockstep (0 = unbounded).")
  in
  let per_insn =
    Arg.(value & opt bool true & info [ "per-insn" ]
           ~doc:"Also compare registers after every retired V-ISA \
                 instruction where sound (straightening backend).")
  in
  let threaded =
    Arg.(value & flag & info [ "threaded" ]
           ~doc:"Run the VM sink-less so translated execution takes the \
                 threaded-code engine (boundary granularity only).")
  in
  let stress =
    Arg.(value & flag & info [ "stress" ]
           ~doc:"Generate programs with the adversarial stress arms \
                 (flush-storm, megamorphic indirect jumps, deep call \
                 towers) instead of the broad oracle generator.")
  in
  let warm_start =
    Arg.(value & flag & info [ "warm-start" ]
           ~doc:"Save-load-rerun roundtrip: every run first executes cold, \
                 snapshots its translation cache through the full byte \
                 encoding, then the VM under comparison warm-starts from \
                 the snapshot.")
  in
  let json =
    Arg.(value & opt string "-" & info [ "json" ]
           ~doc:"Write the JSON summary to this file ('-' = stdout).")
  in
  let repro_dir =
    Arg.(value & opt (some string) None & info [ "repro-dir" ] ~docv:"DIR"
           ~doc:"On divergence, write each shrunk reproducer (minimized \
                 assembly source + rendered divergence) into $(docv), \
                 created on demand; CI uploads it as a failure artifact.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the stderr summary.")
  in
  Cmd.v
    (Cmd.info "ildp_fuzz"
       ~doc:"Differential fuzzing of the DBT against the Alpha interpreter")
    Term.(
      const run $ count $ seed $ minutes $ jobs $ modes $ flush_every
      $ tcache_cap $ per_insn $ threaded $ stress $ warm_start $ json
      $ repro_dir $ quiet)

let () = exit (Cmd.eval cmd)
