(** One-call compile-and-simulate helpers — the facade most users (and the
    examples, CLI and benchmark harness) go through. *)

type measurement = {
  cycles : int;
  stats : Voltron_machine.Stats.t;
  coh_stats : Voltron_mem.Coherence.stats;
      (** whole-hierarchy cache/coherence totals *)
  net_stats : Voltron_net.Operand_network.stats;
  outcome : Voltron_machine.Machine.outcome;
  verified : bool;
      (** [Finished] and memory image matched the reference interpreter *)
  plan : Voltron_compiler.Select.planned_region list;
  energy : Voltron_machine.Energy.report;
  sanity : Voltron_sanity.Sanity.report option;
      (** present iff the run was sanitized *)
}

val completed : measurement -> bool

val run :
  ?choice:Voltron_compiler.Select.choice ->
  ?check:bool ->
  ?profile:Voltron_analysis.Profile.t ->
  ?oracle:Voltron_compiler.Driver.oracle ->
  ?tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?prepare:(Voltron_compiler.Driver.compiled -> Voltron_machine.Machine.t -> unit) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  ?sanitize_log:(string -> unit) ->
  n_cores:int ->
  Voltron_ir.Hir.program ->
  measurement
(** Compile (default [`Hybrid]) for an [n_cores] Voltron and simulate to
    completion. [tweak] adjusts the machine configuration (cache
    latencies, network capacity, fault injection, ...) before compiling —
    used by the ablation benches and the resilience sweep. [prepare] sees
    the compiled program and the machine before the run starts — the
    observability layer's attachment point (tracers, region attribution,
    samplers); it runs before the sanitizer subscribes, so a test hook
    subscribed there acts before the sanitizer's per-cycle check, and test
    harnesses can also arm tampering backdoors there. [sanitize] attaches the runtime
    invariant sanitizer under that policy (disabling stall fast-forward
    for the run) and fills the measurement's [sanity] report;
    [sanitize_log] sees each recorded violation as it happens. A simulator
    deadlock, cycle-cap overrun, fault-limit or sanitizer stop is returned
    as the measurement's [outcome] (with [verified = false]), not raised.

    [oracle] is an earlier {!Voltron_compiler.Driver.interpret} of the
    same program, shared by every run of it; [profile] only overrides
    strategy selection ({!Voltron_compiler.Driver.compile}).

    The static cross-core checker gates compilation by default: checker
    errors raise {!Voltron_check.Check.Failed}. Pass [~check:false] to
    skip it. *)

(** {1 Graceful degradation} *)

type attempt = {
  a_level : Voltron_fault.Fault.level;
  a_choice : Voltron_compiler.Select.choice;
  a_n_cores : int;
  a_measurement : measurement;
}

type resilient = {
  final : measurement;
  attempts : attempt list;  (** in execution order; last produced [final] *)
  degraded : bool;  (** at least one rung was abandoned *)
}

val run_resilient :
  ?choice:Voltron_compiler.Select.choice ->
  ?check:bool ->
  ?profile:Voltron_analysis.Profile.t ->
  ?tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?prepare:(Voltron_compiler.Driver.compiled -> Voltron_machine.Machine.t -> unit) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  n_cores:int ->
  Voltron_ir.Hir.program ->
  resilient
(** Like {!run}, but when a rung stops with [Fault_limit] the ladder
    degrades — full hybrid parallelism, then queue-mode-only ([`Tlp]),
    then sequential on core 0 — and re-runs. The bottom rung clears the
    degradation threshold so the last resort always runs to completion
    (faults are still injected and recovered, so it must still verify).

    With [~sanitize:Recover], a rung whose sanitizer report is dirty
    (typically a [Stopped] outcome) degrades the same way, and the
    bottom rung demotes the policy to [Report] so the last resort cannot
    be stopped — violations there are counted and surfaced instead.
    [prepare] is forwarded to every rung's {!run} (test harnesses arm
    per-rung tampering there). One interpretation serves every rung. *)

(** {1 Differential testing}

    The correctness contract every compilation strategy carries — identical
    memory image to the reference interpreter, clean static-checker
    diagnostics, fast-forward-invisible timing, watchdog-free termination —
    checked over a strategy x core-count matrix in one call. This is the
    entry the generative fuzzer ([voltron_gen]) and the corpus replay tests
    share. *)

type diff_case = {
  d_strategy : Voltron_compiler.Select.choice;
  d_cores : int;
  d_coherence : Voltron_mem.Coherence.protocol;
      (** which coherence backend the diverging simulation ran on — named
          in cell transcripts and reproducer headers so a finding's exact
          cell regenerates *)
}

type divergence =
  | Non_completion of {
      nc_case : diff_case;
      nc_fast_forward : bool;
      nc_outcome : Voltron_machine.Machine.outcome;
    }  (** deadlock, cycle cap or fault stop — watchdog-free termination failed *)
  | Checksum_mismatch of { cm_case : diff_case; expected : int; got : int }
      (** array-footprint memory image differs from the reference
          interpreter (or, for the per-cycle reference run, from the
          fast-forward run) *)
  | Checker_rejected of {
      cr_case : diff_case;
      diags : Voltron_check.Check.diag list;
    }  (** the static cross-core checker found errors in the build *)
  | Ff_cycle_mismatch of { fc_case : diff_case; ff_on : int; ff_off : int }
      (** stall fast-forward changed the cycle count — it must be
          architecturally invisible *)
  | Sanity_violation of {
      sv_case : diff_case;
      sv_fast_forward : bool;
      sv_report : Voltron_sanity.Sanity.report;
    }  (** the runtime sanitizer found invariant violations in the run *)

type differential = {
  diff_runs : int;  (** simulations performed *)
  diff_warnings : int;  (** checker warnings across all cases (not failures) *)
  diff_divergences : divergence list;
}

val default_strategies : Voltron_compiler.Select.choice list
(** [[`Seq; `Ilp; `Tlp; `Llp; `Hybrid]] *)

val default_cores : int list
(** [[2; 4; 8]] *)

val default_coherence : Voltron_mem.Coherence.protocol list
(** [[Snoop; Directory]] — every fuzz campaign diffs both backends by
    default. *)

val divergence_class : divergence -> string
(** Stable failure-class tag: ["non-completion"], ["checksum"],
    ["checker"], ["ff-cycles"] or ["sanitizer"] — the shrinker preserves
    this. *)

val divergence_to_string : divergence -> string

val differential :
  ?strategies:Voltron_compiler.Select.choice list ->
  ?cores:int list ->
  ?coherence:Voltron_mem.Coherence.protocol list ->
  ?max_steps:int ->
  ?max_cycles:int ->
  ?tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?miscompile:(Voltron_compiler.Driver.compiled -> Voltron_compiler.Driver.compiled) ->
  ?ff_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?dir_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  ?jobs:int ->
  Voltron_ir.Hir.program ->
  differential
(** Interprets the program once ({!Voltron_compiler.Driver.interpret}),
    then for every strategy x core count: compile once against that shared
    oracle (static checker on),
    then for every coherence backend on the [coherence] axis (default
    {!default_coherence} — snoop and directory both), simulate twice —
    stall fast-forward on, then off — and record every contract
    violation. The coherence protocol is timing-only, so each backend's
    fast-forward image is judged against the timing-independent reference
    interpreter — which transitively diffs the snoop and directory
    checksums against each other — and each backend must complete within
    the cycle cap with fast-forward-invariant cycles (the cycle-sanity
    half of the axis). [max_steps] bounds the oracle interpreter (a
    program that exceeds it raises
    {!Voltron_ir.Interp.Step_limit_exceeded} before any cell runs) and
    [max_cycles] clamps the simulator cap (both deliberately small so
    runaway shrink candidates fail fast instead of simulating 200M
    cycles); raise them for unusually large programs. [sanitize] attaches
    the runtime sanitizer to every simulation; a dirty report is its own
    [Sanity_violation] divergence (and supersedes the non-completion
    judgement for that run — an [Abort] stop is the sanitizer working).
    Note the sanitizer's per-cycle hook disables stall fast-forward, so
    the ff-on/ff-off comparison degenerates under it.

    [miscompile], [ff_tweak] and [dir_tweak] exist for the harness's own
    tests: the first rewrites the compiled artifact before simulation (an
    intentional miscompile, to prove checksum and checker divergences are
    caught), the second perturbs only the per-cycle reference machine (to
    prove fast-forward divergences are caught), the third perturbs only
    the directory-backend simulations (to prove directory-only bugs are
    caught and attributed to their backend). Leave all three at their
    identity defaults in real use.

    [jobs] (default 1) runs the matrix cells on a work-stealing pool of
    that many domains ({!Voltron_pool.Pool.parallel_map}); each cell
    compiles and simulates independently, and runs, warnings and
    divergences are accumulated by cell index, so the result is
    bit-identical for every [jobs] value. *)

val baseline_cycles :
  ?oracle:Voltron_compiler.Driver.oracle -> Voltron_ir.Hir.program -> int
(** Single-core sequential cycles (the paper's 1.0 reference). *)

val speedup :
  ?choice:Voltron_compiler.Select.choice ->
  n_cores:int ->
  Voltron_ir.Hir.program ->
  float
(** [baseline / parallel] cycles, both runs sharing one oracle; also
    asserts verification. *)
