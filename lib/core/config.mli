(** DBT system configuration (paper Section 4.1 defaults). *)

(** Target instruction-set format, paper Sections 2.1 and 2.3. *)
type isa = Basic | Modified

(** Fragment chaining implementation, paper Section 4.3:
    - [No_pred]: every register-indirect transfer goes through the shared
      dispatch code;
    - [Sw_pred_no_ras]: translation-time software target prediction
      (compare-and-branch) for all indirect transfers including returns;
    - [Sw_pred_ras]: software prediction for indirect jumps plus the
      dual-address hardware RAS for returns (the paper's baseline). *)
type chaining = No_pred | Sw_pred_no_ras | Sw_pred_ras

(** Translated-code execution engine for sink-less (functional) runs:
    - [Threaded]: direct-threaded code — each cache slot compiled into a
      specialized closure, executed by a tight trampoline (the default);
    - [Matched]: the instrumented variant-match engine, also always used
      when a timing sink is attached (it alone emits per-instruction
      events). Forcing it here gives a sink-free throughput baseline. *)
type engine = Threaded | Matched

type t = {
  isa : isa;
  chaining : chaining;
  hot_threshold : int;  (** interpretations before a candidate becomes hot *)
  max_superblock : int;  (** maximum V-ISA instructions per superblock *)
  n_accs : int;  (** logical accumulators (4 in the paper, 8 in Fig. 9) *)
  stop_at_translated : bool;
      (** end superblock formation on reaching an existing fragment entry
          (Dynamo-style linking). Not among the paper's ending conditions;
          default off. *)
  fuse_mem : bool;
      (** keep displacements inside I-ISA memory instructions instead of
          splitting address computation — the Section 4.5 option.
          Default off. *)
  engine : engine;
      (** execution engine for sink-less translated execution
          (default [Threaded]). *)
  tcache_max_slots : int;
      (** translation-cache capacity in I-ISA slots: exceeding it after a
          translation triggers a Dynamo-style whole-cache flush (fragments,
          chain patches, RAS) and a rebuild from the
          interpreter. Default [max_int] — effectively unbounded. *)
}

val default : t
(** Modified ISA, dual-RAS chaining, threshold 50, superblock 200, 4
    accumulators — the paper's baseline. *)

val telemetry : bool ref
(** Process-wide telemetry switch, an alias of {!Obs.enabled}: when
    false (the default) every instrumentation point costs one
    load-and-branch and simulation output is byte-identical to an
    uninstrumented build; when true, counters/histograms/spans
    accumulate in the {!Obs} registry for [--telemetry-json] export. *)

val isa_name : isa -> string
val chaining_name : chaining -> string
val engine_name : engine -> string

val fingerprint :
  t -> backend:string -> image_digest:string -> Persist.Snapshot.fingerprint
(** The snapshot compatibility fingerprint for this configuration: every
    field that changes what the translator emits or how translated code
    executes, plus the VM [backend] name ("acc"/"straight") and the
    workload [image_digest]. {!Core.Vm.create}[ ~snapshot] refuses any
    snapshot whose stored fingerprint differs in any field. *)
