(* Unit and property tests for the machine substrate: memory, caches,
   predictors, and the dual-address RAS. *)

open Machine

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- memory ---------- *)

let test_mem_rw () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:0x1000;
  Memory.set_u8 m 0x1000 0xab;
  check Alcotest.int "u8" 0xab (Memory.get_u8 m 0x1000);
  Memory.set_u16 m 0x1010 0xbeef;
  check Alcotest.int "u16" 0xbeef (Memory.get_u16 m 0x1010);
  Memory.set_u32 m 0x1020 0xdeadbeef;
  check Alcotest.int "u32" 0xdeadbeef (Memory.get_u32 m 0x1020);
  Memory.set_i64 m 0x1040 0x1122334455667788L;
  check Alcotest.int64 "i64" 0x1122334455667788L (Memory.get_i64 m 0x1040)

let test_mem_endianness () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:64;
  Memory.set_i64 m 0 0x0807060504030201L;
  for i = 0 to 7 do
    check Alcotest.int (Printf.sprintf "byte %d" i) (i + 1) (Memory.get_u8 m i)
  done;
  check Alcotest.int "u16 at 2" 0x0403 (Memory.get_u16 m 2);
  check Alcotest.int "u32 at 4" 0x08070605 (Memory.get_u32 m 4)

let test_mem_fault () =
  let m = Memory.create () in
  Memory.map m ~addr:0x10000 ~len:0x100;
  check Alcotest.bool "mapped" true (Memory.is_mapped m 0x10000);
  check Alcotest.bool "unmapped" false (Memory.is_mapped m 0x90000);
  Alcotest.check_raises "fault" (Memory.Fault 0x90000) (fun () ->
      ignore (Memory.get_u8 m 0x90000))

let test_mem_cross_chunk () =
  let m = Memory.create () in
  (* chunk size is 64 KiB; write an i64 straddling the boundary *)
  Memory.map m ~addr:0 ~len:(2 * 65536);
  let addr = 65536 - 3 in
  Memory.set_i64 m addr 0x1020304050607080L;
  check Alcotest.int64 "straddle" 0x1020304050607080L (Memory.get_i64 m addr);
  let addr2 = 65536 - 1 in
  Memory.set_u16 m addr2 0xcafe;
  check Alcotest.int "straddle u16" 0xcafe (Memory.get_u16 m addr2)

let test_mem_dirty_tracking () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:(4 * 65536);
  Memory.set_u8 m 0x10 1;
  check Alcotest.(list int) "off by default: nothing recorded" []
    (Memory.dirty_chunks m);
  Memory.set_dirty_tracking m true;
  Memory.set_u8 m 0x20 2;
  Memory.set_i64 m (3 * 65536) 9L;
  (* a straddling store dirties both chunks via its decomposed halves *)
  Memory.set_i64 m (2 * 65536 - 4) 0x1122334455667788L;
  check Alcotest.(list int) "written chunks, sorted" [ 0; 1; 2; 3 ]
    (Memory.dirty_chunks m);
  check Alcotest.bool "chunk bytes reachable" true
    (Memory.chunk_bytes m 0 <> None);
  Memory.clear_dirty m;
  check Alcotest.(list int) "cleared" [] (Memory.dirty_chunks m);
  (* reads never dirty *)
  ignore (Memory.get_i64 m 0x10);
  check Alcotest.(list int) "reads don't dirty" [] (Memory.dirty_chunks m)

(* The last-chunk cache must not leak between a memory and its copy: a copy
   made while the original has a chunk cached writes only its own bytes. *)
let test_mem_copy_after_cache () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:0x100;
  Memory.set_u8 m 0x10 7;
  check Alcotest.int "original cached" 7 (Memory.get_u8 m 0x10);
  let c = Memory.copy m in
  Memory.set_u8 c 0x10 9;
  Memory.set_i64 c 0x20 0x1122334455667788L;
  check Alcotest.int "original unchanged by the copy's write" 7
    (Memory.get_u8 m 0x10);
  check Alcotest.int64 "original unchanged by the copy's i64 write" 0L
    (Memory.get_i64 m 0x20);
  check Alcotest.int "copy sees its write" 9 (Memory.get_u8 c 0x10);
  Memory.set_u8 m 0x10 1;
  check Alcotest.int "copy unchanged by the original's write" 9
    (Memory.get_u8 c 0x10)

(* A cached hit on one chunk must not let an access to an unmapped chunk
   through: every width, and the cell moves, still fault. *)
let test_mem_fault_after_cached_hit () =
  let m = Memory.create () in
  Memory.map m ~addr:0x10000 ~len:0x100;
  let cell = Cell.create 1 in
  let hit () = ignore (Memory.get_u8 m 0x10000) in
  let faults what f =
    hit ();
    Alcotest.check_raises what (Memory.Fault 0x30000) f
  in
  faults "u8" (fun () -> ignore (Memory.get_u8 m 0x30000));
  faults "u16" (fun () -> ignore (Memory.get_u16 m 0x30000));
  faults "u32" (fun () -> Memory.set_u32 m 0x30000 1);
  faults "i64" (fun () -> ignore (Memory.get_i64 m 0x30000));
  faults "i64 into a cell" (fun () -> Memory.get_i64_into m 0x30000 cell 0);
  faults "i64 from a cell" (fun () -> Memory.set_i64_from m 0x30000 cell 0);
  (* the cache still serves the mapped chunk afterwards *)
  Memory.set_u8 m 0x10001 5;
  check Alcotest.int "mapped chunk still reachable" 5 (Memory.get_u8 m 0x10001)

(* Accesses alternating between chunks, and straddling their boundary,
   through both the boxed accessors and the cell moves. *)
let test_mem_chunk_switching () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:(3 * 65536);
  let cell = Cell.create 2 in
  for i = 0 to 99 do
    let a = (i mod 3 * 65536) + (8 * i) in
    Memory.set_i64 m a (Int64.of_int (i * 1000))
  done;
  for i = 0 to 99 do
    let a = (i mod 3 * 65536) + (8 * i) in
    Memory.get_i64_into m a cell 8;
    check Alcotest.int64 "alternating chunks" (Int64.of_int (i * 1000))
      (Cell.get cell 8)
  done;
  List.iter
    (fun off ->
      let a = 65536 - off in
      Cell.set cell 0 0x0102030405060708L;
      Memory.set_i64_from m a cell 0;
      check Alcotest.int64 "straddling store" 0x0102030405060708L
        (Memory.get_i64 m a);
      check Alcotest.int "low byte in first chunk" 0x08 (Memory.get_u8 m a);
      check Alcotest.int "high byte" 0x01 (Memory.get_u8 m (a + 7));
      Memory.get_i64_into m a cell 8;
      check Alcotest.int64 "straddling load" 0x0102030405060708L
        (Cell.get cell 8))
    [ 1; 3; 4; 7 ];
  (* a straddle into an unmapped chunk faults *)
  Alcotest.check_raises "straddle into unmapped" (Memory.Fault (3 * 65536))
    (fun () -> Memory.get_i64_into m ((3 * 65536) - 4) cell 0)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"memory i64 roundtrip" ~count:500
    QCheck.(pair (int_bound 0xfff0) int64)
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0 ~len:0x10000;
      let addr = off land lnot 7 in
      Memory.set_i64 m addr v;
      Int64.equal (Memory.get_i64 m addr) v)

(* ---------- cache ---------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~ways:2 ~policy:Cache.Lru in
  check Alcotest.bool "cold miss" false (Cache.access c 0);
  check Alcotest.bool "hit" true (Cache.access c 0);
  check Alcotest.bool "same line" true (Cache.access c 63);
  check Alcotest.bool "next line miss" false (Cache.access c 64)

let test_cache_lru_eviction () =
  (* 2-way, 8 sets of 64B lines: three lines mapping to set 0 *)
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~ways:2 ~policy:Cache.Lru in
  let set_stride = 8 * 64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c set_stride);
  ignore (Cache.access c 0);
  (* now LRU way holds [set_stride]; this evicts it *)
  ignore (Cache.access c (2 * set_stride));
  check Alcotest.bool "0 survives" true (Cache.probe c 0);
  check Alcotest.bool "stride evicted" false (Cache.probe c set_stride)

let test_cache_capacity () =
  let c = Cache.create ~name:"t" ~size:4096 ~line:64 ~ways:4 ~policy:Cache.Lru in
  (* touch exactly the capacity: everything should then hit *)
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  let hits = ref 0 in
  for i = 0 to 63 do
    if Cache.access c (i * 64) then incr hits
  done;
  check Alcotest.int "all hit at capacity" 64 !hits

let prop_cache_miss_bounded =
  QCheck.Test.make ~name:"cache misses <= accesses" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 0xffff))
    (fun addrs ->
      let c =
        Cache.create ~name:"t" ~size:2048 ~line:32 ~ways:2 ~policy:Cache.Random
      in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      c.Cache.misses <= c.Cache.accesses && c.Cache.misses > 0)

(* ---------- memory hierarchy ---------- *)

let test_memhier_latencies () =
  let h = Memhier.create Memhier.default_cfg in
  let cold = Memhier.load h ~pe:0 0x4000 in
  check Alcotest.int "cold load = L1+L2+mem" (2 + 8 + 72) cold;
  let warm = Memhier.load h ~pe:0 0x4000 in
  check Alcotest.int "warm load = L1" 2 warm

let test_memhier_replication () =
  let h = Memhier.create ~replicas:4 Memhier.default_cfg in
  ignore (Memhier.store h 0x8000);
  (* the store installed the line in every replica *)
  for pe = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "replica %d hits" pe)
      2
      (Memhier.load h ~pe 0x8000)
  done

(* ---------- gshare ---------- *)

let test_gshare_learns_loop () =
  let g = Gshare.create () in
  (* strongly-taken loop branch: after warmup it should always predict taken *)
  let correct = ref 0 in
  for i = 1 to 100 do
    if Gshare.predict_update g 0x1000 ~taken:true then
      if i > 10 then incr correct
  done;
  check Alcotest.int "loop branch learned" 90 !correct

let test_gshare_alternating_with_history () =
  let g = Gshare.create () in
  (* strict alternation is captured by global history *)
  let correct = ref 0 in
  for i = 0 to 199 do
    let taken = i land 1 = 0 in
    if Gshare.predict_update g 0x2000 ~taken then if i >= 100 then incr correct
  done;
  check Alcotest.bool "alternation learned" true (!correct >= 95)

(* ---------- btb ---------- *)

let test_btb_basic () =
  let b = Btb.create () in
  check Alcotest.(option int) "cold" None (Btb.lookup b 0x1000);
  Btb.update b 0x1000 ~target:0x2000;
  check Alcotest.(option int) "after update" (Some 0x2000) (Btb.lookup b 0x1000);
  Btb.update b 0x1000 ~target:0x3000;
  check Alcotest.(option int) "retarget" (Some 0x3000) (Btb.lookup b 0x1000)

let test_btb_conflict_eviction () =
  let b = Btb.create ~entries:8 ~ways:2 () in
  (* 4 sets; pcs mapping to the same set differ by 4*4=16 bytes *)
  let stride = 4 * 4 in
  Btb.update b 0x1000 ~target:1;
  Btb.update b (0x1000 + stride) ~target:2;
  Btb.update b (0x1000 + (2 * stride)) ~target:3;
  check Alcotest.(option int) "LRU victim gone" None (Btb.lookup b 0x1000);
  check Alcotest.(option int) "newest present" (Some 3)
    (Btb.lookup b (0x1000 + (2 * stride)))

(* ---------- ras ---------- *)

let test_ras_lifo () =
  let r = Ras.create () in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3;
  check Alcotest.(option int) "pop 3" (Some 3) (Ras.pop r);
  check Alcotest.(option int) "pop 2" (Some 2) (Ras.pop r);
  check Alcotest.(option int) "pop 1" (Some 1) (Ras.pop r);
  check Alcotest.(option int) "empty" None (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~entries:4 () in
  for i = 1 to 6 do
    Ras.push r i
  done;
  (* deepest surviving entries are 3..6 *)
  check Alcotest.(option int) "pop 6" (Some 6) (Ras.pop r);
  check Alcotest.(option int) "pop 5" (Some 5) (Ras.pop r);
  check Alcotest.(option int) "pop 4" (Some 4) (Ras.pop r);
  check Alcotest.(option int) "pop 3" (Some 3) (Ras.pop r);
  check Alcotest.(option int) "empty after wrap" None (Ras.pop r)

(* The allocation-free predictor queries the timing models use must agree
   with the option-returning observers. Small structures and small value
   ranges force conflicts, evictions, wrap-around and empty pops. *)
let prop_btb_predicts =
  QCheck.Test.make ~name:"btb: predicts agrees with lookup" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (triple bool (int_bound 31) (int_bound 3)))
    (fun ops ->
      let b = Btb.create ~entries:8 ~ways:2 () in
      List.for_all
        (fun (update, pc, target) ->
          let pc = pc * 4 in
          if update then begin
            Btb.update b pc ~target;
            true
          end
          else Btb.predicts b pc ~target = (Btb.lookup b pc = Some target))
        ops)

let prop_ras_pop_is =
  QCheck.Test.make ~name:"ras: pop_is agrees with pop" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 60) (pair bool (int_bound 3)))
    (fun ops ->
      let a = Ras.create ~entries:4 () and b = Ras.create ~entries:4 () in
      List.for_all
        (fun (push, v) ->
          if push then begin
            Ras.push a v;
            Ras.push b v;
            true
          end
          else Ras.pop_is a v = (Ras.pop b = Some v) && a = b)
        ops)

(* ---------- dual-address RAS ---------- *)

let test_dras_match () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:0x1000 ~i_addr:(Some 77);
  check Alcotest.(option int) "verified pop" (Some 77)
    (Dual_ras.pop_verify d ~v_actual:0x1000)

let test_dras_mismatch () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:0x1000 ~i_addr:(Some 77);
  check Alcotest.(option int) "stale pair rejected" None
    (Dual_ras.pop_verify d ~v_actual:0x2000);
  check Alcotest.(option int) "empty stack rejected" None
    (Dual_ras.pop_verify d ~v_actual:0x1000)

let test_dras_nested_calls () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:10 ~i_addr:(Some 100);
  Dual_ras.push d ~v_addr:20 ~i_addr:(Some 200);
  check Alcotest.(option int) "inner" (Some 200) (Dual_ras.pop_verify d ~v_actual:20);
  check Alcotest.(option int) "outer" (Some 100) (Dual_ras.pop_verify d ~v_actual:10);
  check (Alcotest.float 0.01) "hit rate" 1.0 (Dual_ras.hit_rate d)

(* A call whose return point is untranslated pushes no I-address. The pop
   must verify the nesting (consume the slot) but report a miss — the old
   [-1] integer sentinel could leak out as a "live" target here. *)
let test_dras_untranslated_return () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:10 ~i_addr:(Some 100);
  Dual_ras.push d ~v_addr:20 ~i_addr:None;
  check Alcotest.(option int) "no-target pair is a miss" None
    (Dual_ras.pop_verify d ~v_actual:20);
  check Alcotest.(option int) "nesting stays aligned" (Some 100)
    (Dual_ras.pop_verify d ~v_actual:10);
  check Alcotest.int "only the live pop counts as a hit" 1 d.hits;
  check Alcotest.int "both pops counted" 2 d.pops

let prop_dras_balanced =
  QCheck.Test.make ~name:"dual-RAS: balanced call/return always verifies"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (pair small_nat small_nat))
    (fun pairs ->
      let d = Dual_ras.create () in
      List.iter (fun (v, i) -> Dual_ras.push d ~v_addr:v ~i_addr:(Some i)) pairs;
      List.for_all
        (fun (v, i) -> Dual_ras.pop_verify d ~v_actual:v = Some i)
        (List.rev pairs))

(* ---------- rng determinism ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let suite =
  [
    ("memory read/write widths", `Quick, test_mem_rw);
    ("memory little-endian layout", `Quick, test_mem_endianness);
    ("memory fault on unmapped", `Quick, test_mem_fault);
    ("memory cross-chunk access", `Quick, test_mem_cross_chunk);
    ("memory dirty-chunk tracking", `Quick, test_mem_dirty_tracking);
    ("memory copy after a cached chunk", `Quick, test_mem_copy_after_cache);
    ("memory fault after a cached hit", `Quick,
     test_mem_fault_after_cached_hit);
    ("memory chunk switching and straddles", `Quick, test_mem_chunk_switching);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache full capacity hits", `Quick, test_cache_capacity);
    ("memhier latency levels", `Quick, test_memhier_latencies);
    ("memhier store broadcast to replicas", `Quick, test_memhier_replication);
    ("gshare learns biased branch", `Quick, test_gshare_learns_loop);
    ("gshare learns alternation", `Quick, test_gshare_alternating_with_history);
    ("btb install/lookup/retarget", `Quick, test_btb_basic);
    ("btb conflict eviction", `Quick, test_btb_conflict_eviction);
    ("ras lifo order", `Quick, test_ras_lifo);
    ("ras circular overflow", `Quick, test_ras_overflow_wraps);
    ("dual-ras verified return", `Quick, test_dras_match);
    ("dual-ras mismatch falls through", `Quick, test_dras_mismatch);
    ("dual-ras nested calls", `Quick, test_dras_nested_calls);
    ("dual-ras untranslated return point", `Quick, test_dras_untranslated_return);
    ("rng determinism", `Quick, test_rng_deterministic);
    qtest prop_mem_roundtrip;
    qtest prop_cache_miss_bounded;
    qtest prop_dras_balanced;
    qtest prop_btb_predicts;
    qtest prop_ras_pop_is;
  ]
