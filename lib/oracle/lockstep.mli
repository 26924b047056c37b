(** Lockstep differential oracle: golden interpreter vs. the DBT VM.

    Runs a reference {!Alpha.Interp} alongside a {!Core.Vm} over the same
    program and compares full architected state — registers, PAL output,
    and written memory pages — at every translated-segment boundary (the
    VM's [boundary] hook), and optionally after every retired V-ISA
    instruction. The synchronization invariant is exact: at any segment
    boundary the VM has architecturally retired
    [vm.interp.icount + alpha_retired] V-ISA instructions, so the
    reference is single-stepped to that count and the two states must be
    bit-identical (modulo AT/GP, which the straightening DBT borrows, and
    VM-private memory: the dispatch table and scratch page).

    Boundary granularity is sufficient under the paper's precise-state
    rules: inside a fragment architected state may legitimately lag
    (deferred basic-format copies, split conditional moves), but every VM
    exit — including trap recovery through the PEI tables — must present
    precise state. Per-instruction comparison is therefore only sound for
    the code-straightening backend and is restricted to it. *)

type mode = {
  kind : Core.Vm.kind;
  isa : Core.Config.isa;
  chaining : Core.Config.chaining;
  fuse_mem : bool;
}

val all_modes : mode list
(** Every backend/ISA/chaining combination the DBT supports: the six
    accumulator modes, two fused-addressing variants, and the three
    straightening modes — 11 in total. *)

val mode_name : mode -> string
val mode_of_name : string -> mode option

type granularity =
  | Boundary  (** compare at translated-segment boundaries (always sound) *)
  | Per_insn
      (** additionally compare registers after every retired V-ISA
          instruction; honored only for [Straight_only] (see above),
          silently degraded to [Boundary] for accumulator backends *)

type coverage = {
  retired : int;  (** V-ISA instructions architecturally retired *)
  boundaries : int;  (** segment boundaries compared *)
  insn_checks : int;  (** per-instruction comparisons performed *)
  superblocks : int;
  branch_exits : int;
  pal_exits : int;
  dispatch_misses : int;
  trap_recoveries : int;
  flushes : int;
  dras_hits : int;
  dras_misses : int;
  outcome : string;  (** ["exit:N"], ["trap:KIND"] or ["fuel"] *)
  trap : string option;  (** trap kind when the program faulted *)
}

type divergence = {
  d_mode : string;
  where : string;  (** which comparison point caught it *)
  retired : int;  (** V-ISA retirement count at that point *)
  mismatches : Snapshot.mismatch list;
  frag_disasm : string option;
      (** disassembly of the fragment containing the last executed
          translated instruction *)
  v_range : (int * int) option;  (** that fragment's (v_start, v_insns) *)
}

type result = Agree of coverage | Diverge of divergence

val run :
  ?granularity:granularity ->
  ?threaded:bool ->
  ?flush_every:int ->
  ?fuel:int ->
  ?hot_threshold:int ->
  ?tcache_max_slots:int ->
  ?warm_start:bool ->
  ?corrupt:(int -> Core.Vm.t -> unit) ->
  mode:mode ->
  Alpha.Program.t ->
  result
(** Execute [prog] under [mode] with the reference in lockstep.
    [threaded] (default false) runs the VM without an event sink so
    translated execution takes the threaded-code engine — the oracle then
    validates that engine instead of the instrumented one, at the cost of
    per-instruction granularity and fragment-disassembly context in
    divergence reports. [flush_every] > 0 injects a {!Core.Vm.flush}
    every that many segment boundaries (default 0 = never).
    [hot_threshold] defaults to 10 so short programs reach translated
    code. [tcache_max_slots] (default unbounded) bounds the translation
    cache, so capacity-policy flushes — and the closure recompilation
    they force — run under lockstep verification too. [warm_start]
    (default false) first runs a throwaway VM cold to
    completion, saves its translation cache through the full
    {!Persist.Snapshot} byte encoding, and builds the VM under comparison
    from that snapshot — proving warm start observationally identical to
    cold. [corrupt], a test hook, runs after the comparison at each
    boundary (1-based index) and may mutate VM state to prove the oracle
    catches it. *)

val pp_divergence : Format.formatter -> divergence -> unit
