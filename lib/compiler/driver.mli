(** Top-level compilation entry points. *)

type compiled = {
  executable : Voltron_isa.Program.t;
  plan : Select.planned_region list;
  region_extents : Codegen.region_extent list;
      (** per-core pc ranges of each planned region, in plan order — the
          observability layer's region<->pc map *)
  oracle_checksum : int;  (** reference interpreter's memory checksum *)
  array_footprint : int;  (** words to compare (arrays only, no scratch) *)
  check_diags : Voltron_check.Check.diag list;
      (** static checker output (warnings only — errors raise); empty when
          compiled with [~check:false] *)
}

type oracle = {
  dyn_profile : Voltron_analysis.Profile.t;
      (** the dynamic profile of the run, with the default profiling cache *)
  checksum : int;  (** memory checksum over the array footprint *)
  footprint : int;  (** words to compare (arrays only, no scratch) *)
}
(** Everything a compile needs from running the program: one reference
    interpreter run with profiling hooks attached. It depends on the
    program alone, not on the machine or strategy, and is immutable, so
    one value can be shared read-only by every compile of the program. *)

val interpret : ?max_steps:int -> Voltron_ir.Hir.program -> oracle
(** Runs the program once under {!Voltron_analysis.Profile.collect_run}.
    [max_steps] bounds the run (see {!Voltron_ir.Interp.run}); exceeding
    it raises {!Voltron_ir.Interp.Step_limit_exceeded}. *)

val compile :
  machine:Voltron_machine.Config.t ->
  ?choice:Select.choice ->
  ?check:bool ->
  ?static_profile:bool ->
  ?profile:Voltron_analysis.Profile.t ->
  ?max_steps:int ->
  ?oracle:oracle ->
  Voltron_ir.Hir.program ->
  compiled
(** Selects a strategy per region ([`Hybrid] by default), generates
    per-core code, and records the oracle checksum over the array
    footprint for verification.

    The compile interprets the program exactly once, by {!interpret}, or
    not at all when [oracle] (from an earlier {!interpret} of the same
    program) is given. That one run gives the oracle checksum and
    footprint and the program's dynamic profile. [max_steps] bounds it —
    the fuzzing harness uses this to reject runaway shrink candidates
    quickly; it is unused when [oracle] is given.

    Strategy selection reads, in order of precedence: the caller's
    [profile]; the abstract interpreter's synthesised profile
    ({!Voltron_analysis.Profile.of_static}) when [static_profile] is set
    ([--no-profile] on the CLI); otherwise the dynamic profile. Codegen's
    eBUG partitioner (strands, and DSWP's fallback) always reads the
    dynamic profile of the program being compiled, whatever selection
    used: a caller's [profile] may belong to another program (a
    fault-free variant, say), and the static profile's miss model is an
    estimate, so neither changes which loads eBUG treats as likely to
    miss. Selection under [static_profile] is therefore static, but the
    compile still runs the program once, for the oracle and for eBUG.

    Unless [~check:false] is given, the static cross-core checker
    ({!Voltron_check.Check}) runs over the generated images as a
    post-codegen gate: checker errors raise {!Voltron_check.Check.Failed}
    with the full diagnostic list; warnings are returned in
    [check_diags]. *)

val compile_baseline : Voltron_ir.Hir.program -> compiled
(** Single-core sequential build (the paper's baseline). *)

val verify : Voltron_machine.Config.t -> compiled -> (int, string) result
(** Run the compiled program and compare its array-footprint checksum to
    the oracle; [Ok cycles] on success. *)
