(** Differential fuzzing campaign: generate, run the contract, shrink,
    write reproducers.

    Each generated program is rendered to concrete VC syntax and
    re-parsed before running — so every finding is guaranteed to
    reproduce from its on-disk [.vc] form, and the print/reparse path is
    itself under test. The failure predicate is
    {!Voltron.Run.differential}: oracle checksum agreement, clean static
    checker, fast-forward cycle equality and watchdog-free termination
    over a strategy x core matrix. *)

type finding = {
  f_campaign_seed : int;  (** the campaign's [~seed] *)
  f_index : int;  (** cell index within the campaign ([~index] + offset) *)
  f_seed : int;
      (** derived generator seed for this cell:
          [Rng.next (Rng.split (Rng.create f_campaign_seed) f_index)] *)
  f_class : string;
      (** {!Voltron.Run.divergence_class} of the first divergence, or
          ["crash: <exn>"] when the toolchain raised *)
  f_case : Voltron.Run.diff_case option;  (** the first diverging case *)
  f_detail : string;  (** human-readable description of the divergence *)
  f_original : Voltron_lang.Ast.program;
  f_minimized : Voltron_lang.Ast.program;  (** = original when not minimized *)
}

type report = {
  r_programs : int;  (** programs generated and run *)
  r_runs : int;  (** total simulations across all differentials *)
  r_warnings : int;  (** static-checker warnings seen (informational) *)
  r_findings : finding list;
}

val first_failure :
  ?strategies:Voltron_compiler.Select.choice list ->
  ?cores:int list ->
  ?coherence:Voltron_mem.Coherence.protocol list ->
  ?miscompile:(Voltron_compiler.Driver.compiled -> Voltron_compiler.Driver.compiled) ->
  ?ff_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?dir_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  Voltron_lang.Ast.program ->
  (string * Voltron.Run.diff_case option * string) option * int * int
(** Render, re-parse, elaborate and run the differential contract.
    Returns [(failure, runs, warnings)] where [failure] is
    [Some (class, case, detail)] for the first divergence or crash.
    [coherence] restricts the coherence axis (default: snoop and
    directory both, {!Voltron.Run.default_coherence}). [miscompile],
    [ff_tweak], [dir_tweak] and [sanitize] are threaded to
    {!Voltron.Run.differential} (the harness's own self-tests inject
    deliberate miscompiles through the first three — [dir_tweak] perturbs
    only directory-backend simulations; [sanitize] attaches the runtime
    invariant sanitizer to every simulation, adding the ["sanitizer"]
    divergence class). *)

val minimize :
  ?strategies:Voltron_compiler.Select.choice list ->
  ?cores:int list ->
  ?coherence:Voltron_mem.Coherence.protocol list ->
  ?miscompile:(Voltron_compiler.Driver.compiled -> Voltron_compiler.Driver.compiled) ->
  ?ff_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?dir_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  cls:string ->
  ?case:Voltron.Run.diff_case ->
  Voltron_lang.Ast.program ->
  Voltron_lang.Ast.program
(** Shrink while the program still fails with class [cls]. When [case] is
    given, only that strategy/core/coherence cell is re-run per candidate
    (much faster; the corpus replay test re-confirms the full matrix). *)

val run :
  ?strategies:Voltron_compiler.Select.choice list ->
  ?cores:int list ->
  ?coherence:Voltron_mem.Coherence.protocol list ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  ?size:int ->
  ?minimize_findings:bool ->
  ?on_program:(seed:int -> Voltron_lang.Ast.program -> unit) ->
  ?log:(string -> unit) ->
  ?jobs:int ->
  ?index:int ->
  seed:int ->
  count:int ->
  unit ->
  report
(** Run [count] programs at campaign cells [index, index + count)
    (default [index = 0]). Cell [k]'s generator seed is derived by
    {!Voltron_util.Rng.split} from the campaign [seed] and [k] alone, so
    a single finding regenerates with [~seed ~index:k ~count:1] and the
    cell set is independent of [jobs] and chunking. [on_program] sees
    every generated program before it runs (the CLI's [--emit] hook);
    under [jobs > 1] it is called concurrently from worker domains, so it
    must be thread-safe (writing one file per seed is fine). [log]
    receives one-line progress and finding messages, always in cell-index
    order — the transcript is byte-identical for every [jobs] value.
    [jobs] (default 1) fans the cells out on the work-stealing pool. *)

val mkdir_p : string -> unit
(** [mkdir -p]: create a directory and its missing parents. *)

val write_reproducer : dir:string -> finding -> string
(** Write the minimized program as
    [dir/fuzz_s<campaign seed>_i<index>_<class>.vc] with a triage header
    (campaign seed, cell index, generator seed, class, diverging case,
    regeneration command); returns the path. Creates [dir] ({!mkdir_p}). *)
