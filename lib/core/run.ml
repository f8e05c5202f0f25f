module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Driver = Voltron_compiler.Driver
module Fault = Voltron_fault.Fault
module Sanity = Voltron_sanity.Sanity

type measurement = {
  cycles : int;
  stats : Voltron_machine.Stats.t;
  coh_stats : Voltron_mem.Coherence.stats;
  net_stats : Voltron_net.Operand_network.stats;
  outcome : Machine.outcome;
  verified : bool;
  plan : Voltron_compiler.Select.planned_region list;
  energy : Voltron_machine.Energy.report;
  sanity : Sanity.report option;
}

let completed m = m.outcome = Machine.Finished

let run ?(choice = `Hybrid) ?(check = true) ?profile ?oracle
    ?(tweak = fun c -> c) ?(prepare = fun _ _ -> ()) ?sanitize
    ?(sanitize_log = fun _ -> ()) ~n_cores program =
  let machine = tweak (Config.default ~n_cores) in
  let compiled = Driver.compile ~machine ~choice ~check ?profile ?oracle program in
  let m = Machine.create machine compiled.Driver.executable in
  (* [prepare]'s subscribers go first, so the sanitizer's per-cycle check
     sees whatever a test hook did that cycle. *)
  prepare compiled m;
  let san =
    match sanitize with
    | None -> None
    | Some policy -> Some (Sanity.attach ~policy ~log:sanitize_log m)
  in
  let result = Machine.run m in
  (match san with
  | None -> ()
  | Some s ->
    Sanity.finalize s ~completed:(result.Machine.outcome = Machine.Finished));
  let outcome = result.Machine.outcome in
  let sum =
    Voltron_mem.Memory.checksum_prefix (Machine.memory m)
      compiled.Driver.array_footprint
  in
  {
    cycles = result.Machine.cycles;
    stats = Machine.stats m;
    coh_stats = Voltron_mem.Coherence.total_stats (Machine.coherence m);
    net_stats = Voltron_net.Operand_network.stats (Machine.network m);
    outcome;
    verified = outcome = Machine.Finished && sum = compiled.Driver.oracle_checksum;
    plan = compiled.Driver.plan;
    energy =
      Voltron_machine.Energy.of_run ~stats:(Machine.stats m)
        ~coherence:(Machine.coherence m) ~network:(Machine.network m) ();
    sanity = Option.map Sanity.report san;
  }

(* --- Graceful degradation ladder ------------------------------------------ *)

type attempt = {
  a_level : Fault.level;
  a_choice : Voltron_compiler.Select.choice;
  a_n_cores : int;
  a_measurement : measurement;
}

type resilient = {
  final : measurement;
  attempts : attempt list;  (** in execution order; last produced [final] *)
  degraded : bool;
}

(* Map a degradation rung onto a compilation strategy: full hybrid
   parallelism first, queue-mode-only (no lock-step coupling, no TM
   speculation) next, and sequential on core 0 as the last resort. *)
let strategy_of_level ~choice ~n_cores = function
  | Fault.Full -> (choice, n_cores)
  | Fault.Decoupled_only -> (`Tlp, n_cores)
  | Fault.Serial_core0 -> (`Seq, 1)

let run_resilient ?(choice = `Hybrid) ?(check = true) ?profile
    ?(tweak = fun c -> c) ?(prepare = fun _ _ -> ()) ?sanitize ~n_cores
    program =
  (* The program, not the rung, fixes the oracle. *)
  let oracle = Driver.interpret program in
  let rec go level acc =
    let choice', n_cores' = strategy_of_level ~choice ~n_cores level in
    let tweak' c =
      let c = tweak c in
      match level with
      | Fault.Serial_core0 ->
        (* The bottom rung must always complete: keep injecting (the run
           still has to verify) but never give up on it. *)
        { c with Config.fault = { c.Config.fault with Fault.degrade_threshold = 0 } }
      | Fault.Full | Fault.Decoupled_only -> c
    in
    (* The sanitizer follows the same last-resort rule: at the bottom rung
       a Recover policy demotes to Report, so violations are still counted
       and surfaced but can no longer stop the run. *)
    let sanitize' =
      match (level, sanitize) with
      | Fault.Serial_core0, Some Sanity.Recover -> Some Sanity.Report
      | _ -> sanitize
    in
    let m =
      run ~choice:choice' ~check ?profile ~oracle ~tweak:tweak' ~prepare
        ?sanitize:sanitize' ~n_cores:n_cores' program
    in
    let attempt =
      { a_level = level; a_choice = choice'; a_n_cores = n_cores'; a_measurement = m }
    in
    let acc = attempt :: acc in
    let sanity_dirty =
      sanitize' = Some Sanity.Recover
      && match m.sanity with Some r -> not (Sanity.clean r) | None -> false
    in
    match m.outcome with
    | Machine.Fault_limit _ -> (
      match Fault.degrade level with
      | Some next -> go next acc
      | None -> (acc, m))
    | _ when sanity_dirty -> (
      match Fault.degrade level with
      | Some next -> go next acc
      | None -> (acc, m))
    | Machine.Finished | Machine.Out_of_cycles | Machine.Deadlock _
    | Machine.Stopped _ ->
      (acc, m)
  in
  let attempts_rev, final = go Fault.Full [] in
  let attempts = List.rev attempts_rev in
  { final; attempts; degraded = List.length attempts > 1 }

(* --- Differential harness -------------------------------------------------- *)

type diff_case = {
  d_strategy : Voltron_compiler.Select.choice;
  d_cores : int;
  d_coherence : Voltron_mem.Coherence.protocol;
}

type divergence =
  | Non_completion of {
      nc_case : diff_case;
      nc_fast_forward : bool;
      nc_outcome : Machine.outcome;
    }
  | Checksum_mismatch of { cm_case : diff_case; expected : int; got : int }
  | Checker_rejected of {
      cr_case : diff_case;
      diags : Voltron_check.Check.diag list;
    }
  | Ff_cycle_mismatch of { fc_case : diff_case; ff_on : int; ff_off : int }
  | Sanity_violation of {
      sv_case : diff_case;
      sv_fast_forward : bool;
      sv_report : Sanity.report;
    }

type differential = {
  diff_runs : int;
  diff_warnings : int;
  diff_divergences : divergence list;
}

let default_strategies : Voltron_compiler.Select.choice list =
  [ `Seq; `Ilp; `Tlp; `Llp; `Hybrid ]

let default_cores = [ 2; 4; 8 ]

let default_coherence : Voltron_mem.Coherence.protocol list =
  [ Voltron_mem.Coherence.Snoop; Voltron_mem.Coherence.Directory ]

let case_name c =
  Printf.sprintf "%s/%d-core/%s"
    (Voltron_compiler.Select.choice_name c.d_strategy) c.d_cores
    (Voltron_mem.Coherence.protocol_name c.d_coherence)

let divergence_class = function
  | Non_completion _ -> "non-completion"
  | Checksum_mismatch _ -> "checksum"
  | Checker_rejected _ -> "checker"
  | Ff_cycle_mismatch _ -> "ff-cycles"
  | Sanity_violation _ -> "sanitizer"

let divergence_to_string = function
  | Non_completion { nc_case; nc_fast_forward; nc_outcome } ->
    Printf.sprintf "[%s, fast-forward %s] did not complete: %s"
      (case_name nc_case)
      (if nc_fast_forward then "on" else "off")
      (Machine.outcome_to_string nc_outcome)
  | Checksum_mismatch { cm_case; expected; got } ->
    Printf.sprintf "[%s] memory diverged from the oracle: expected %x, got %x"
      (case_name cm_case) expected got
  | Checker_rejected { cr_case; diags } ->
    Printf.sprintf "[%s] static checker rejected the build:\n%s"
      (case_name cr_case)
      (String.concat "\n"
         (List.map
            (fun d -> "  " ^ Voltron_check.Check.diag_to_string d)
            diags))
  | Ff_cycle_mismatch { fc_case; ff_on; ff_off } ->
    Printf.sprintf
      "[%s] fast-forward changed the cycle count: %d on, %d off"
      (case_name fc_case) ff_on ff_off
  | Sanity_violation { sv_case; sv_fast_forward; sv_report } ->
    Printf.sprintf "[%s, fast-forward %s] %s" (case_name sv_case)
      (if sv_fast_forward then "on" else "off")
      (Sanity.report_to_string sv_report)

(* One compile per (strategy, cores) cell; the coherence axis and the
   fast-forward flag are simulation-only, so every simulation in a cell
   shares one executable — any disagreement is a simulator bug, not a
   compilation difference. Per coherence backend, two simulations
   (fast-forward on and off): the fast-forward run is judged against the
   reference interpreter's checksum — which is timing-independent, so the
   snoop and directory images are transitively diffed against each other —
   and the per-cycle run against the fast-forward run.

   The program is interpreted once, before any cell: the oracle (checksum,
   footprint, dynamic profile) depends on the program alone, and every
   cell's compile reads it, never writes it. Each (strategy, cores) cell
   is otherwise a pure value: it compiles its own executable and builds
   its own machines, so cells run on any domain.
   Results are accumulated by cell index — (cores-major, strategies-minor,
   matching the serial iteration order) — never by completion order, so
   the report is bit-identical for every [jobs] value. *)
let differential ?(strategies = default_strategies) ?(cores = default_cores)
    ?(coherence = default_coherence) ?(max_steps = 2_000_000)
    ?(max_cycles = 4_000_000) ?(tweak = fun c -> c)
    ?(miscompile = fun c -> c) ?(ff_tweak = fun c -> c)
    ?(dir_tweak = fun c -> c) ?sanitize ?(jobs = 1) program =
  (if coherence = [] then
     invalid_arg "Run.differential: empty coherence axis");
  let oracle = Driver.interpret ~max_steps program in
  let cell (d_cores, d_strategy) =
    let runs = ref 0 and warnings = ref 0 and divs = ref [] in
    let push d = divs := d :: !divs in
    let simulate config (compiled : Driver.compiled) =
      incr runs;
      let m = Machine.create config compiled.Driver.executable in
      let san =
        match sanitize with
        | None -> None
        | Some policy -> Some (Sanity.attach ~policy m)
      in
      let result = Machine.run m in
      (match san with
      | None -> ()
      | Some s ->
        Sanity.finalize s ~completed:(result.Machine.outcome = Machine.Finished));
      let sum =
        Voltron_mem.Memory.checksum_prefix (Machine.memory m)
          compiled.Driver.array_footprint
      in
      (result.Machine.outcome, result.Machine.cycles, sum, Option.map Sanity.report san)
    in
    let config =
      let c = tweak (Config.default ~n_cores:d_cores) in
      { c with Config.max_cycles = min c.Config.max_cycles max_cycles }
    in
    (match
       Driver.compile ~machine:config ~choice:d_strategy ~check:true ~oracle
         program
     with
    | exception Voltron_check.Check.Failed diags ->
      push
        (Checker_rejected
           {
             cr_case =
               { d_strategy; d_cores; d_coherence = List.hd coherence };
             diags;
           })
    | compiled ->
      let compiled = miscompile compiled in
      if Voltron_check.Check.has_errors compiled.Driver.check_diags then
        push
          (Checker_rejected
             {
               cr_case =
                 { d_strategy; d_cores; d_coherence = List.hd coherence };
               diags = compiled.Driver.check_diags;
             })
      else begin
        warnings := !warnings + List.length compiled.Driver.check_diags;
        List.iter
          (fun proto ->
            let case = { d_strategy; d_cores; d_coherence = proto } in
            let config =
              let c = Config.with_coherence proto config in
              if proto = Voltron_mem.Coherence.Directory then dir_tweak c
              else c
            in
            let run_ff ff config =
              simulate { config with Config.fast_forward = ff } compiled
            in
            let o_on, cyc_on, sum_on, san_on = run_ff true config in
            let o_off, cyc_off, sum_off, san_off =
              run_ff false (ff_tweak config)
            in
            (* A dirty sanitizer report is its own divergence class and
               supersedes the non-completion judgement for that run (an
               Abort-policy stop is the sanitizer working, not a hang). *)
            let check_sanity ff san =
              match san with
              | Some r when not (Sanity.clean r) ->
                push
                  (Sanity_violation
                     { sv_case = case; sv_fast_forward = ff; sv_report = r });
                true
              | _ -> false
            in
            let dirty_on = check_sanity true san_on in
            let dirty_off = check_sanity false san_off in
            let check_completed ff o expected sum dirty =
              if not dirty then
                match o with
                | Machine.Finished ->
                  if sum <> expected then
                    push
                      (Checksum_mismatch { cm_case = case; expected; got = sum })
                | o ->
                  push
                    (Non_completion
                       { nc_case = case; nc_fast_forward = ff; nc_outcome = o })
            in
            (* The fast-forward run is judged against the oracle; the
               per-cycle reference run is judged against the fast-forward
               run, so one miscompile is one divergence, and any on/off
               disagreement (cycles or memory) is a simulator bug. *)
            check_completed true o_on compiled.Driver.oracle_checksum sum_on
              dirty_on;
            check_completed false o_off sum_on sum_off dirty_off;
            if o_on = Machine.Finished && o_off = Machine.Finished && cyc_on <> cyc_off
            then
              push
                (Ff_cycle_mismatch
                   { fc_case = case; ff_on = cyc_on; ff_off = cyc_off }))
          coherence
      end);
    (!runs, !warnings, List.rev !divs)
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun c -> List.map (fun s -> (c, s)) strategies)
         cores)
  in
  let per_cell = Voltron_pool.Pool.parallel_map ~jobs cell cells in
  let runs, warnings, divs_rev =
    Array.fold_left
      (fun (r, w, ds) (r', w', ds') -> (r + r', w + w', List.rev_append ds' ds))
      (0, 0, []) per_cell
  in
  {
    diff_runs = runs;
    diff_warnings = warnings;
    diff_divergences = List.rev divs_rev;
  }

let baseline_cycles ?oracle program =
  let m = run ~choice:`Seq ?oracle ~n_cores:1 program in
  (match m.outcome with
  | Machine.Finished -> ()
  | o -> failwith ("baseline run " ^ Machine.outcome_to_string o));
  m.cycles

let speedup ?(choice = `Hybrid) ~n_cores program =
  let oracle = Driver.interpret program in
  let base = baseline_cycles ~oracle program in
  let m = run ~choice ~oracle ~n_cores program in
  (match m.outcome with
  | Machine.Finished -> ()
  | o -> failwith ("speedup run " ^ Machine.outcome_to_string o));
  if not m.verified then failwith "speedup: memory image diverged from oracle";
  float_of_int base /. float_of_int m.cycles
