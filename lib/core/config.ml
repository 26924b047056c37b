(* DBT system configuration (paper Section 4.1 defaults). *)

(* Target instruction-set format, paper Sections 2.1 and 2.3. *)
type isa = Basic | Modified

(* Fragment chaining implementation, paper Section 4.3:
   - [No_pred]: every register-indirect transfer goes through the shared
     dispatch code;
   - [Sw_pred_no_ras]: translation-time software target prediction
     (compare-and-branch) for all indirect transfers including returns;
   - [Sw_pred_ras]: software prediction for indirect jumps plus the
     dual-address hardware RAS for returns (the paper's baseline). *)
type chaining = No_pred | Sw_pred_no_ras | Sw_pred_ras

(* Translated-code execution engine:
   - [Threaded]: direct-threaded code — every cache slot is compiled into a
     specialized closure at first use and [run] is a tight trampoline. No
     per-instruction events, so it is the functional-mode (sink-less) path;
   - [Matched]: the instrumented variant-match engine. Attaching a timing
     sink always selects it regardless of this field, since only it emits
     per-instruction events; forcing it here gives a sink-free baseline for
     throughput comparisons. *)
type engine = Threaded | Matched

type t = {
  isa : isa;
  chaining : chaining;
  hot_threshold : int; (* interpretations before a candidate becomes hot *)
  max_superblock : int; (* maximum V-ISA instructions per superblock *)
  n_accs : int; (* logical accumulators *)
  stop_at_translated : bool;
  (* end superblock formation on reaching an existing fragment entry
     (Dynamo-style linking: less tail duplication, shorter fragments).
     The paper's ending conditions do not include this; default off. *)
  fuse_mem : bool;
  (* keep the displacement inside I-ISA memory instructions instead of
     splitting address computation into a separate instruction — the
     expansion-reducing option the paper discusses in Section 4.5
     ("this puts more pressure on decoding hardware but reduces pressure
     on fetch and reorder buffer mechanisms"). Default off (Section 2.1's
     addressing modes perform no computation). *)
  engine : engine;
  (* execution engine for sink-less translated execution; see {!engine} *)
  tcache_max_slots : int;
  (* translation-cache capacity in I-ISA slots. When a translation pushes
     the cache past this bound the VM flushes everything Dynamo-style
     (fragments, chain patches, RAS) and rebuilds
     from the interpreter — the real-VM policy an unbounded cache never
     exercises. Default [max_int]: effectively unbounded, the historical
     behaviour. *)
}

let default =
  {
    isa = Modified;
    chaining = Sw_pred_ras;
    hot_threshold = 50;
    max_superblock = 200;
    n_accs = 4;
    stop_at_translated = false;
    fuse_mem = false;
    engine = Threaded;
    tcache_max_slots = max_int;
  }

(* Process-wide telemetry switch (an alias of [Obs.enabled], so flipping
   either name flips both). Off by default: every instrumentation point in
   the VM, the translators, the caches and the engines degrades to one
   load-and-branch, and all simulation output is byte-identical to an
   uninstrumented build. *)
let telemetry : bool ref = Obs.enabled

let isa_name = function Basic -> "basic" | Modified -> "modified"

let engine_name = function
  | Threaded -> "threaded"
  | Matched -> "matched"

let chaining_name = function
  | No_pred -> "no_pred"
  | Sw_pred_no_ras -> "sw_pred.no_ras"
  | Sw_pred_ras -> "sw_pred.ras"

(* Snapshot fingerprint (lib/persist): every configuration field that
   changes what the translator emits or how translated code executes must
   appear here, so that a persisted translation cache can never be loaded
   under a configuration it was not produced by. [backend] is the VM kind
   ("acc"/"straight"), [image_digest] identifies the workload image. *)
let fingerprint cfg ~backend ~image_digest : Persist.Snapshot.fingerprint =
  {
    fp_backend = backend;
    fp_isa = isa_name cfg.isa;
    fp_chaining = chaining_name cfg.chaining;
    fp_engine = engine_name cfg.engine;
    fp_n_accs = cfg.n_accs;
    fp_hot_threshold = cfg.hot_threshold;
    fp_max_superblock = cfg.max_superblock;
    fp_stop_at_translated = cfg.stop_at_translated;
    fp_fuse_mem = cfg.fuse_mem;
    fp_tcache_max_slots = cfg.tcache_max_slots;
    fp_image_digest = image_digest;
  }
