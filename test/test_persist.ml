(* Persistent translation-cache snapshots.

   The contract under test, from the bottom up:

   - Bin_io primitives roundtrip exactly (including min_int/max_int) and
     the CRC-32 matches the published IEEE check value;
   - a saved snapshot survives encode -> decode structurally unchanged,
     and its byte encoding is deterministic;
   - every kind of damage — bit flips anywhere in the file, truncation at
     every prefix length, bad magic, version skew, trailing garbage, an
     inflated array count, out-of-range cache contents behind a valid
     CRC — is rejected with {!Persist.Snapshot.Error}, never loaded;
   - a snapshot taken under one configuration or program is rejected by a
     VM with any other (fingerprint invalidation);
   - a warm-started VM is observationally identical to a cold one (output,
     register checksum, outcome) while forming zero superblocks and
     spending strictly less translation-phase work, across backends and
     engines, including through the lockstep oracle in all modes;
   - the cache survives a flush *after* a warm start (generation
     invalidation of restored state);
   - [Tcache.clear] drops the patch log's backing storage, so repeated
     flush cycles cannot grow it without bound (the satellite fix). *)

open Oracle

let check = Alcotest.check

(* ---------- Bin_io ---------- *)

let test_bin_io_roundtrip () =
  let module B = Persist.Bin_io in
  let w = B.writer () in
  B.u8 w 0;
  B.u8 w 255;
  B.u32 w 0xdeadbeef;
  B.int w max_int;
  B.int w min_int;
  B.int w (-1);
  B.bool w true;
  B.bool w false;
  B.str w "";
  B.str w "hello, \x00 world";
  let r = B.reader (B.contents w) in
  check Alcotest.int "u8 lo" 0 (B.read_u8 r);
  check Alcotest.int "u8 hi" 255 (B.read_u8 r);
  check Alcotest.int "u32" 0xdeadbeef (B.read_u32 r);
  check Alcotest.int "max_int" max_int (B.read_int r);
  check Alcotest.int "min_int" min_int (B.read_int r);
  check Alcotest.int "minus one" (-1) (B.read_int r);
  check Alcotest.bool "true" true (B.read_bool r);
  check Alcotest.bool "false" false (B.read_bool r);
  check Alcotest.string "empty str" "" (B.read_str r);
  check Alcotest.string "str" "hello, \x00 world" (B.read_str r);
  check Alcotest.bool "eof" true (B.eof r)

let test_bin_io_truncated () =
  let module B = Persist.Bin_io in
  let r = B.reader "\x01\x02" in
  ignore (B.read_u8 r);
  (match B.read_u32 r with
  | _ -> Alcotest.fail "truncated u32 must raise"
  | exception B.Error msg ->
    check Alcotest.bool "position in message" true
      (String.length msg > 0 && String.sub msg 0 5 = "byte "));
  let r = B.reader "\x07" in
  match B.read_bool r with
  | _ -> Alcotest.fail "bad boolean byte must raise"
  | exception B.Error _ -> ()

let test_crc32 () =
  (* the IEEE 802.3 check value for the standard test vector *)
  check Alcotest.int "crc(123456789)" 0xcbf43926
    (Persist.Bin_io.crc32 "123456789");
  check Alcotest.int "crc(empty)" 0 (Persist.Bin_io.crc32 "")

(* ---------- building VMs and snapshots ---------- *)

let prog_of_seed seed = Gen.assemble (Gen.generate ~seed)

let cfg_of ?(engine = Core.Config.Threaded) (mode : Lockstep.mode) =
  { Core.Config.default with
    isa = mode.isa; chaining = mode.chaining; fuse_mem = mode.fuse_mem;
    hot_threshold = 10; engine }

let base_mode =
  { Lockstep.kind = Core.Vm.Acc; isa = Core.Config.Modified;
    chaining = Core.Config.Sw_pred_ras; fuse_mem = false }

let run_cold ?(mode = base_mode) ?engine prog =
  let vm = Core.Vm.create ~cfg:(cfg_of ?engine mode) ~kind:mode.kind prog in
  let outcome = Core.Vm.run ~fuel:5_000_000 vm in
  (vm, outcome)

let snapshot_of ?(mode = base_mode) ?engine prog =
  let vm, _ = run_cold ~mode ?engine prog in
  Core.Vm.save_snapshot vm

(* ---------- container roundtrip and determinism ---------- *)

let test_roundtrip () =
  let prog = prog_of_seed 3 in
  let snap = snapshot_of prog in
  let bytes = Persist.Snapshot.to_string snap in
  let back = Persist.Snapshot.of_string bytes in
  check Alcotest.bool "fingerprint" true (back.fingerprint = snap.fingerprint);
  (match (snap.body, back.body) with
  | Persist.Snapshot.B_acc a, Persist.Snapshot.B_acc b ->
    check Alcotest.int "slots" (Array.length a.slots) (Array.length b.slots);
    check Alcotest.bool "slots equal" true (a.slots = b.slots);
    check Alcotest.bool "frags equal" true (a.frags = b.frags);
    check Alcotest.bool "peis equal" true (a.peis = b.peis);
    check Alcotest.bool "exits equal" true (a.exits = b.exits);
    check Alcotest.bool "slot_alpha equal" true (a.slot_alpha = b.slot_alpha);
    check Alcotest.bool "slot_class equal" true (a.slot_class = b.slot_class);
    check Alcotest.int "dispatch slot" a.dispatch_slot b.dispatch_slot;
    check Alcotest.bool "unique vpcs equal" true (a.unique_vpcs = b.unique_vpcs)
  | _ -> Alcotest.fail "backend tag changed in roundtrip");
  (* byte-deterministic: saving the same run twice encodes identically *)
  let bytes' = Persist.Snapshot.to_string (snapshot_of prog) in
  check Alcotest.bool "deterministic encoding" true (bytes = bytes')

let test_straight_roundtrip () =
  let mode =
    { Lockstep.kind = Core.Vm.Straight_only; isa = Core.Config.Modified;
      chaining = Core.Config.Sw_pred_ras; fuse_mem = false }
  in
  let prog = prog_of_seed 4 in
  let snap = snapshot_of ~mode prog in
  let back = Persist.Snapshot.of_string (Persist.Snapshot.to_string snap) in
  match (snap.body, back.body) with
  | Persist.Snapshot.B_straight a, Persist.Snapshot.B_straight b ->
    check Alcotest.bool "straight slots equal" true (a.slots = b.slots)
  | _ -> Alcotest.fail "expected straight bodies"

(* ---------- damage rejection ---------- *)

let expect_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: damaged snapshot was accepted" name
  | exception Persist.Snapshot.Error _ -> ()

let test_corruption_rejected () =
  let bytes = Persist.Snapshot.to_string (snapshot_of (prog_of_seed 5)) in
  let n = String.length bytes in
  (* flip one byte at a spread of positions across the file *)
  let step = max 1 (n / 37) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string bytes in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x40));
    expect_error
      (Printf.sprintf "flip@%d" !pos)
      (fun () -> Persist.Snapshot.of_string (Bytes.to_string b));
    pos := !pos + step
  done

let test_truncation_rejected () =
  let bytes = Persist.Snapshot.to_string (snapshot_of (prog_of_seed 5)) in
  let n = String.length bytes in
  List.iter
    (fun k ->
      expect_error
        (Printf.sprintf "truncate@%d" k)
        (fun () -> Persist.Snapshot.of_string (String.sub bytes 0 k)))
    [ 0; 1; 7; 8; 12; 16; 20; n / 2; n - 1 ]

let test_framing_rejected () =
  let bytes = Persist.Snapshot.to_string (snapshot_of (prog_of_seed 5)) in
  expect_error "bad magic" (fun () ->
      Persist.Snapshot.of_string ("XLDPSNAP" ^ String.sub bytes 8 (String.length bytes - 8)));
  expect_error "trailing garbage" (fun () ->
      Persist.Snapshot.of_string (bytes ^ "x"));
  (* version skew: bump the little-endian version word at offset 8, and
     stamp the previous format version (v5, which still carried the
     region/superop and cycle-annotation fields) over it *)
  let b = Bytes.of_string bytes in
  Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) + 1));
  expect_error "version skew" (fun () ->
      Persist.Snapshot.of_string (Bytes.to_string b));
  Bytes.set b 8 (Char.chr 5);
  expect_error "v5 snapshot" (fun () ->
      Persist.Snapshot.of_string (Bytes.to_string b))

(* An array count inflated to 0xFFFFFFFF inside a payload whose CRC is
   recomputed must fail with [Error] before anything is allocated, not
   with [Out_of_memory]. The slot count sits right after the fingerprint,
   whose last field is the image digest, then the one-byte backend tag. *)
let test_inflated_count_rejected () =
  let snap = snapshot_of (prog_of_seed 5) in
  let bytes = Persist.Snapshot.to_string snap in
  let header = 20 (* magic, version, payload length, CRC *) in
  let payload = String.sub bytes header (String.length bytes - header) in
  let digest = snap.fingerprint.fp_image_digest in
  let rec find i =
    if String.sub payload i (String.length digest) = digest then i
    else find (i + 1)
  in
  let count_at = find 0 + String.length digest + 1 in
  let p = Bytes.of_string payload in
  Bytes.fill p count_at 4 '\xff';
  let p = Bytes.to_string p in
  let b = Bytes.of_string bytes in
  Bytes.blit_string p 0 b header (String.length p);
  let crc = Persist.Bin_io.crc32 p in
  for k = 0 to 3 do
    Bytes.set b (16 + k) (Char.chr ((crc lsr (8 * k)) land 0xff))
  done;
  match Persist.Snapshot.of_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "inflated count was accepted"
  | exception Persist.Snapshot.Error msg ->
    let has sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    check Alcotest.bool "reports the count" true (has "array count")

(* ---------- crafted caches behind a valid CRC ---------- *)

(* Structurally corrupt cache contents behind a *valid* container CRC
   (re-encoding recomputes it) must still be rejected at load — semantic
   validation cannot hide behind the checksum. Each input below would
   otherwise become an unchecked index in the threaded trampoline, lift
   the fuel budget, or crash mid-run. *)
let test_crafted_cache_rejected () =
  let prog = prog_of_seed 6 in
  let snap = snapshot_of prog in
  let c =
    match snap.body with
    | Persist.Snapshot.B_acc c -> c
    | Persist.Snapshot.B_straight _ -> Alcotest.fail "expected acc body"
  in
  let poison c =
    { snap with Persist.Snapshot.body = Persist.Snapshot.B_acc c }
  in
  let load s =
    let s = Persist.Snapshot.of_string (Persist.Snapshot.to_string s) in
    ignore
      (Core.Vm.create ~cfg:(cfg_of base_mode) ~snapshot:s ~kind:Core.Vm.Acc prog
        : Core.Vm.t)
  in
  let set0 xs v =
    let xs = Array.copy xs in
    xs.(0) <- v;
    xs
  in
  let n_exits = Array.length c.exits in
  let with_slot0 insn = set0 c.slots (insn, false) in
  let with_pei map =
    Array.append c.peis
      [| { Persist.Snapshot.p_slot = 0; p_v_pc = 0; p_acc_map = map } |]
  in
  expect_error "slot class out of range" (fun () ->
      load (poison { c with slot_class = set0 c.slot_class 9 }));
  expect_error "negative slot class" (fun () ->
      load (poison { c with slot_class = set0 c.slot_class (-1) }));
  expect_error "negative retirement count" (fun () ->
      load (poison { c with slot_alpha = set0 c.slot_alpha (-1_000_000) }));
  expect_error "call-translator exit id out of range" (fun () ->
      load
        (poison
           { c with
             slots = with_slot0 (Accisa.Insn.Call_xlate { exit_id = n_exits })
           }));
  expect_error "conditional exit id out of range" (fun () ->
      load
        (poison
           { c with
             slots =
               with_slot0
                 (Accisa.Insn.Call_xlate_cond
                    { cond = Alpha.Insn.Eq; v = Accisa.Insn.Sacc 0;
                      exit_id = -1 })
           }));
  expect_error "PEI accumulator beyond n_accs" (fun () ->
      load (poison { c with peis = with_pei [| (4, 1) |] }));
  expect_error "PEI register beyond r31" (fun () ->
      load (poison { c with peis = with_pei [| (0, 32) |] }));
  (* and the unpoisoned snapshot still loads *)
  load snap

(* ---------- fingerprint invalidation ---------- *)

let test_fingerprint_rejected () =
  let prog = prog_of_seed 6 in
  let snap = snapshot_of prog in
  let load ?(prog = prog) cfg kind =
    ignore (Core.Vm.create ~cfg ~snapshot:snap ~kind prog : Core.Vm.t)
  in
  let cfg = cfg_of base_mode in
  expect_error "isa" (fun () ->
      load { cfg with isa = Core.Config.Basic } Core.Vm.Acc);
  expect_error "chaining" (fun () ->
      load { cfg with chaining = Core.Config.No_pred } Core.Vm.Acc);
  expect_error "engine" (fun () ->
      load { cfg with engine = Core.Config.Matched } Core.Vm.Acc);
  expect_error "hot threshold" (fun () ->
      load { cfg with hot_threshold = 11 } Core.Vm.Acc);
  expect_error "n_accs" (fun () -> load { cfg with n_accs = 8 } Core.Vm.Acc);
  expect_error "fuse_mem" (fun () ->
      load { cfg with fuse_mem = true } Core.Vm.Acc);
  expect_error "backend" (fun () -> load cfg Core.Vm.Straight_only);
  expect_error "program" (fun () ->
      load ~prog:(prog_of_seed 7) cfg Core.Vm.Acc);
  (* and the matching cold configuration still accepts it *)
  load cfg Core.Vm.Acc

let test_mismatch_report () =
  let fp =
    Core.Config.fingerprint (cfg_of base_mode) ~backend:"acc" ~image_digest:"d"
  in
  check Alcotest.int "compatible: no mismatches" 0
    (List.length (Persist.Snapshot.fingerprint_mismatches ~got:fp ~want:fp));
  let other = { fp with Persist.Snapshot.fp_isa = "basic"; fp_n_accs = 8 } in
  check Alcotest.int "two mismatches" 2
    (List.length (Persist.Snapshot.fingerprint_mismatches ~got:other ~want:fp))

(* ---------- warm start equivalence ---------- *)

let warm_equals_cold ?(mode = base_mode) ?engine prog =
  let cold_vm, cold_outcome = run_cold ~mode ?engine prog in
  let snap =
    Persist.Snapshot.of_string
      (Persist.Snapshot.to_string (Core.Vm.save_snapshot cold_vm))
  in
  let warm_vm =
    Core.Vm.create ~cfg:(cfg_of ?engine mode) ~snapshot:snap ~kind:mode.kind
      prog
  in
  let warm_outcome = Core.Vm.run ~fuel:5_000_000 warm_vm in
  check Alcotest.bool "same outcome" true (warm_outcome = cold_outcome);
  check Alcotest.string "same output" (Core.Vm.output cold_vm)
    (Core.Vm.output warm_vm);
  check Alcotest.bool "same checksum" true
    (Core.Vm.reg_checksum cold_vm = Core.Vm.reg_checksum warm_vm);
  check Alcotest.int "warm forms no superblocks" 0 warm_vm.superblocks;
  if cold_vm.superblocks > 0 then
    check Alcotest.bool "translation phase shrank" true
      ((Core.Vm.cost warm_vm).Core.Cost.translate_units
      < (Core.Vm.cost cold_vm).Core.Cost.translate_units);
  (cold_vm, warm_vm)

let test_warm_equivalence () =
  for seed = 1 to 5 do
    ignore (warm_equals_cold (prog_of_seed seed))
  done

let test_warm_equivalence_matched_engine () =
  ignore (warm_equals_cold ~engine:Core.Config.Matched (prog_of_seed 2))

let test_warm_equivalence_straight () =
  let mode =
    { Lockstep.kind = Core.Vm.Straight_only; isa = Core.Config.Modified;
      chaining = Core.Config.No_pred; fuse_mem = false }
  in
  ignore (warm_equals_cold ~mode (prog_of_seed 8))

(* The threaded engine's closure shadow is compiled eagerly on load
   (prewarm): every restored slot is executable before the first run. *)
let test_prewarm_compiles_closures () =
  let prog = prog_of_seed 9 in
  let snap = snapshot_of prog in
  let slots =
    match snap.body with
    | Persist.Snapshot.B_acc c -> Array.length c.slots
    | Persist.Snapshot.B_straight _ -> Alcotest.fail "expected acc body"
  in
  let vm =
    Core.Vm.create ~cfg:(cfg_of base_mode) ~snapshot:snap ~kind:Core.Vm.Acc
      prog
  in
  let ex = Option.get (Core.Vm.acc_exec vm) in
  check Alcotest.int "all restored slots compiled" slots ex.ops_len

(* A flush after a warm start must invalidate every restored structure
   (generation bump) and still leave a correct VM. *)
let test_flush_after_warm () =
  let prog = prog_of_seed 10 in
  let cold_vm, cold_outcome = run_cold prog in
  let snap = Core.Vm.save_snapshot cold_vm in
  let warm_vm =
    Core.Vm.create ~cfg:(cfg_of base_mode) ~snapshot:snap ~kind:Core.Vm.Acc
      prog
  in
  Core.Vm.flush warm_vm;
  let outcome = Core.Vm.run ~fuel:5_000_000 warm_vm in
  check Alcotest.bool "outcome after flush" true (outcome = cold_outcome);
  check Alcotest.string "output after flush" (Core.Vm.output cold_vm)
    (Core.Vm.output warm_vm)

(* ---------- the oracle proves warm == cold in every mode ---------- *)

let test_oracle_warm_start_all_modes () =
  List.iter
    (fun seed ->
      let prog = prog_of_seed seed in
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "warm seed %d %s" seed (Lockstep.mode_name mode)
          in
          match Lockstep.run ~warm_start:true ~mode prog with
          | Lockstep.Agree c ->
            check Alcotest.bool (name ^ " retired > 0") true
              (c.Lockstep.retired > 0)
          | Lockstep.Diverge d ->
            Alcotest.failf "%s diverged:@\n%a" name Lockstep.pp_divergence d)
        Lockstep.all_modes)
    [ 11; 12 ]

(* ---------- patch-log trim on flush (satellite) ---------- *)

let test_patch_log_trimmed_on_flush () =
  let tc = Core.Tcache.Acc.create () in
  let insn = Accisa.Insn.Br { target = 0 } in
  for _cycle = 1 to 5 do
    for _ = 1 to 4096 do
      ignore (Core.Tcache.Acc.push tc insn : int)
    done;
    for slot = 0 to 4095 do
      Core.Tcache.Acc.patch tc slot insn
    done;
    check Alcotest.int "patches logged" 4096
      (Core.Tcache.Acc.patch_count tc);
    Core.Tcache.Acc.clear tc;
    (* the backing array must shrink back, not merely the length *)
    check Alcotest.bool "patch log storage trimmed" true
      (Core.Tcache.Acc.patch_log_capacity tc <= 16)
  done

let test_vec_reset () =
  let v = Machine.Vec.create ~dummy:0 in
  for i = 1 to 10_000 do
    Machine.Vec.push v i
  done;
  check Alcotest.bool "grown" true (Machine.Vec.capacity v >= 10_000);
  Machine.Vec.reset v;
  check Alcotest.int "empty" 0 (Machine.Vec.length v);
  check Alcotest.bool "storage dropped" true (Machine.Vec.capacity v <= 16);
  Machine.Vec.push v 42;
  check Alcotest.int "usable after reset" 42 (Machine.Vec.get v 0)

let suite =
  [
    Alcotest.test_case "bin_io roundtrip" `Quick test_bin_io_roundtrip;
    Alcotest.test_case "bin_io truncation" `Quick test_bin_io_truncated;
    Alcotest.test_case "crc32 check value" `Quick test_crc32;
    Alcotest.test_case "snapshot roundtrip (acc)" `Quick test_roundtrip;
    Alcotest.test_case "snapshot roundtrip (straight)" `Quick
      test_straight_roundtrip;
    Alcotest.test_case "bit flips rejected" `Quick test_corruption_rejected;
    Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "framing damage rejected" `Quick test_framing_rejected;
    Alcotest.test_case "inflated array count rejected" `Quick
      test_inflated_count_rejected;
    Alcotest.test_case "corrupt cache behind a valid CRC" `Quick
      test_crafted_cache_rejected;
    Alcotest.test_case "fingerprint mismatches rejected" `Quick
      test_fingerprint_rejected;
    Alcotest.test_case "mismatch report" `Quick test_mismatch_report;
    Alcotest.test_case "warm == cold (acc, threaded)" `Quick
      test_warm_equivalence;
    Alcotest.test_case "warm == cold (matched engine)" `Quick
      test_warm_equivalence_matched_engine;
    Alcotest.test_case "warm == cold (straight)" `Quick
      test_warm_equivalence_straight;
    Alcotest.test_case "prewarm compiles closures" `Quick
      test_prewarm_compiles_closures;
    Alcotest.test_case "flush after warm start" `Quick test_flush_after_warm;
    Alcotest.test_case "oracle warm start, all modes" `Slow
      test_oracle_warm_start_all_modes;
    Alcotest.test_case "patch log trimmed on flush" `Quick
      test_patch_log_trimmed_on_flush;
    Alcotest.test_case "Vec.reset drops storage" `Quick test_vec_reset;
  ]
