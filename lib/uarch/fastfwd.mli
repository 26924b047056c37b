(** Fast-forward timing tier: a SMARTS-style interval-sampling
    controller.

    The detailed models ({!Ooo}, {!Ildp}) charge every committed
    instruction through full cache/predictor/scheduling simulation. The
    sampling controller wraps a live model as a drop-in [feed]/[boundary]
    sink but forwards only a warm-up + detail window out of every
    interval, back-charging the skipped remainder at the detail window's
    measured cycles-per-instruction rate. *)

(** {2 Interval-sampling controller} *)

type t

val default_interval : int
val default_warmup : int
val default_detail : int

val create :
  ?interval:int ->
  ?warmup:int ->
  ?detail:int ->
  ?warm:(Machine.Ev.t -> unit) ->
  feed:(Machine.Ev.t -> unit) ->
  boundary:(unit -> unit) ->
  cycles:(unit -> int) ->
  unit ->
  t
(** Wrap a detailed model's sink. Each [interval] committed instructions
    open with [warmup] instructions fed to the model purely to reheat its
    pipeline-timing state (their measured cycles are discarded — the
    reference run never pays the reheat burst), then [detail] instructions
    fed, measured and calibrated, then a fast window that skips [feed] and
    calls [warm] instead — the model's functional-warming hook (e.g.
    {!Ildp.warm}), which keeps caches and predictors hot at a fraction of
    the cost; omitting [warm] leaves fast-window state stale and degrades
    accuracy on memory-bound code. [interval = 0] disables sampling: every
    instruction is fed and {!cycles} equals the wrapped model's count
    exactly. Raises [Invalid_argument] if the windows are negative or do
    not leave a fast window. *)

val feed : t -> Machine.Ev.t -> unit

val boundary : t -> unit
(** Forwards the drain to the wrapped model and cuts short any fast
    window in flight, so instructions after a mode switch (interpreter
    re-entry, warm start) are simulated in full fidelity. *)

val cycles : t -> int
(** Cycles measured in detail windows plus the unmeasured (warm-up and
    fast-window) share extrapolated at the detail windows' measured
    rate. *)

val ipc : t -> float
val v_ipc : t -> float

val skip_ratio : t -> float
(** Fraction of committed instructions that skipped the detailed model. *)

val publish_obs : t -> unit
(** Fold the run's totals into the {!Obs} registry under
    [uarch.fastfwd.*]; no-op while telemetry is off. *)
