(* Command-line driver: run a workload on a simulated Voltron, inspect the
   compiler's plan, statically check the generated code, or disassemble it.

     voltron_sim run --bench 164.gzip --cores 4 --strategy hybrid
     voltron_sim plan --bench cjpeg --cores 4
     voltron_sim profile --bench 164.gzip --cores 4
     voltron_sim check --all --cores 4
     voltron_sim disasm --bench micro:gsm_llp --cores 2 --strategy llp
     voltron_sim list *)

module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Machine = Voltron_machine.Machine
module Select = Voltron_compiler.Select
module Driver = Voltron_compiler.Driver
module Config = Voltron_machine.Config
module Check = Voltron_check.Check
module Json = Voltron_obs.Json
module Metrics = Voltron_obs.Metrics
module Sanity = Voltron_sanity.Sanity
module Absint = Voltron_absint.Absint
module Estimate = Voltron_compiler.Estimate
module Codegen = Voltron_compiler.Codegen
module Region_profile = Voltron_obs.Region_profile
module Blame = Voltron_obs.Blame
module Critpath = Voltron_obs.Critpath
module Coherence = Voltron_mem.Coherence
module Run = Voltron.Run
module Sweep = Voltron.Sweep

(* Diagnostics as an indented block, one per line. *)
let diag_block pp diags =
  String.concat "" (List.map (Format.asprintf "  %a@." pp) diags)

(* A usage error: the message on stderr, exit 2. *)
let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let or_usage = function Ok x -> x | Error msg -> usage "%s" msg

(* Either a named benchmark or a VC source file. *)
let resolve_program bench file scale =
  match (bench, file) with
  | Some name, None -> (name, or_usage (Sweep.program_of_name name ~scale))
  | None, Some path -> (
    match Voltron_lang.Frontend.parse_file path with
    | p -> (path, p)
    | exception Sys_error msg -> usage "%s" msg
    | exception e -> (
      match Voltron_lang.Frontend.error_to_string e with
      | Some msg -> usage "%s: %s" path msg
      | None -> raise e))
  | Some _, Some _ -> usage "--bench and --file are mutually exclusive"
  | None, None -> usage "one of --bench or --file is required"

let strategy_of_flag s =
  match Select.choice_of_string s with
  | Some c -> c
  | None -> usage "unknown strategy %s (seq|ilp|tlp|llp|hybrid)" s

open Cmdliner

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Benchmark name (see $(b,list)).")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE.vc" ~doc:"Compile a VC source file instead.")

let cores_arg =
  Arg.(value & opt int 4 & info [ "c"; "cores" ] ~docv:"N" ~doc:"Number of cores.")

let strategy_arg =
  Arg.(
    value
    & opt string "hybrid"
    & info [ "s"; "strategy" ] ~docv:"S"
        ~doc:"seq, ilp, tlp, llp or hybrid ($(b,run)/$(b,check) $(b,--all) sweep all five).")

let scale_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Workload size multiplier.")

let unroll_arg =
  Arg.(
    value & opt int 1
    & info [ "unroll" ] ~docv:"U" ~doc:"Unroll counted loops by this factor.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Apply the HIR optimisation passes (if-conversion, DCE).")

let apply_opts optimize unroll p =
  if (not optimize) && unroll <= 1 then p
  else
    let base =
      if optimize then Voltron_compiler.Opt.default else Voltron_compiler.Opt.none
    in
    Voltron_compiler.Opt.program
      ~options:{ base with Voltron_compiler.Opt.unroll = max 1 unroll }
      p

let coherence_arg =
  Arg.(
    value & opt string "snoop"
    & info [ "coherence" ] ~docv:"P"
        ~doc:
          "Coherence backend: $(b,snoop) (the default bus-snooped MOESI \
           hierarchy) or $(b,directory) (home-banked MESI directory — \
           distributed serialization that scales past the shared bus at \
           16+ cores).")

let sanitize_arg =
  Arg.(
    value
    & opt ~vopt:(Some "abort") (some string) None
    & info [ "sanitize" ] ~docv:"POLICY"
        ~doc:
          "Attach the runtime invariant sanitizer: per-cycle coherence, \
           network-conservation and TM-rollback oracles. $(docv) is \
           $(b,report) (log and continue), $(b,abort) (stop at the \
           violation; the default when $(docv) is omitted) or $(b,recover) \
           (stop and degrade through the resilience ladder).")

let sanitize_of_flag =
  Option.map (fun s -> or_usage (Sanity.policy_of_string s))

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Inject every fault kind (message drop/corrupt, memory bit flip, \
           spurious TM abort, core stall) at this rate; 0 disables \
           injection.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"S"
        ~doc:"Seed for the fault injector (a fixed seed reproduces the run).")

let fault_threshold_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-threshold" ] ~docv:"N"
        ~doc:
          "Degrade to a simpler execution mode (hybrid -> decoupled-only -> \
           serial) after this many injected faults; 0 never degrades.")

let no_check_arg =
  Arg.(
    value & flag
    & info [ "no-check" ]
        ~doc:
          "Skip the static cross-core checker that normally gates \
           compilation (channel balance, barrier alignment, PUT/GET \
           pairing, deadlock and race detection).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the result as machine-readable JSON to $(docv).")

let no_profile_arg =
  Arg.(
    value & flag
    & info [ "no-profile" ]
        ~doc:
          "Select strategies from the abstract interpreter's synthesised \
           profile (static trip counts, footprint/stride miss model, \
           conservative cross-iteration dependences) instead of the \
           dynamic profile. A compile still runs the program once, for \
           the oracle checksum and eBUG's likely-missing loads.")

let profile_for ~no_profile p =
  if no_profile then Some (Voltron_analysis.Profile.of_static p) else None

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep's independent cells (work-stealing \
           pool). 0 (the default) means $(b,VOLTRON_JOBS) if set, else the \
           host's core count; 1 runs the bit-identical serial reference \
           path. Output is in cell order and byte-identical for every \
           $(docv).")

(* Shared by run's normal and --json output: the pieces that only exist on
   some outcomes. *)
let outcome_json (m : Run.measurement) =
  let diagnosis =
    match m.Run.outcome with
    | Machine.Deadlock d | Machine.Fault_limit d | Machine.Stopped d ->
      [ ("diagnosis", Voltron_obs.Diag.diagnosis_to_json d) ]
    | Machine.Finished | Machine.Out_of_cycles -> []
  in
  let sanitizer =
    match m.Run.sanity with
    | Some r -> [ ("sanitizer", Sanity.report_to_json r) ]
    | None -> []
  in
  (("outcome", Json.Str (Machine.outcome_label m.Run.outcome)) :: diagnosis)
  @ sanitizer

let sanity_line (m : Run.measurement) =
  match m.Run.sanity with
  | None -> ()
  | Some r -> Printf.printf "sanitizer  : %s\n" (Sanity.report_to_string r)

let sanity_clean (m : Run.measurement) =
  match m.Run.sanity with None -> true | Some r -> Sanity.clean r

(* run --all: the whole workload suite (plus the micro kernels) under every
   strategy at the given core count, one line per strategy — the CI's
   sanitized sweep entry point. The program is interpreted once per
   benchmark and that oracle is shared by its five strategy runs. *)
let run_cell ~cores ~coherence ~check ~sanitize ~no_profile name p =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let profile = profile_for ~no_profile p in
  let oracle = Driver.interpret p in
  let row failures choice =
    let m =
      Run.run ~choice ~check ?profile ~oracle ?sanitize
        ~tweak:(Config.with_coherence coherence) ~n_cores:cores p
    in
    out "%-24s %-7s %-10d %s%s%s\n" name (Select.choice_name choice)
      m.Run.cycles
      (Machine.outcome_label m.Run.outcome)
      (if m.Run.verified then "" else ", NOT VERIFIED")
      (match m.Run.sanity with
      | None -> ""
      | Some r when Sanity.clean r -> ", sanitizer clean"
      | Some r -> Printf.sprintf ", SANITIZER: %d violation(s)" r.Sanity.r_total);
    (match m.Run.sanity with
    | Some r when not (Sanity.clean r) ->
      List.iter
        (fun v -> out "    %s\n" (Sanity.violation_to_string v))
        r.Sanity.r_recorded
    | _ -> ());
    if Run.completed m && m.Run.verified && sanity_clean m then failures
    else failures + 1
  in
  let failures = List.fold_left row 0 Run.default_strategies in
  { Sweep.out = Buffer.contents buf; errs = []; failures; value = () }

let run_cmd =
  let run bench file all cores coherence_s strategy scale optimize unroll
      fault_rate fault_seed fault_threshold no_check no_profile sanitize_s
      json_out jobs =
    let check = not no_check in
    let choice = strategy_of_flag strategy in
    let sanitize = sanitize_of_flag sanitize_s in
    let coherence = or_usage (Coherence.protocol_of_string coherence_s) in
    if all then begin
      let _, failures =
        Sweep.run ~sinks:Sweep.stdio ~jobs
          (run_cell ~cores ~coherence ~check ~sanitize ~no_profile)
          (Sweep.targets ~scale)
      in
      if failures > 0 then begin
        Printf.eprintf "%d failing cell(s) in the sweep\n" failures;
        exit 1
      end
    end
    else begin
      let name, p = resolve_program bench file scale in
      let p = apply_opts optimize unroll p in
      let profile = profile_for ~no_profile p in
      let oracle = Driver.interpret p in
      let base = Run.baseline_cycles ~oracle p in
      Printf.printf "benchmark  : %s\n" name;
      Printf.printf "strategy   : %s on %d cores%s\n" strategy cores
        (if no_profile then " (static profile)" else "");
      (* Only a non-default backend prints a header line, keeping default
         transcripts byte-identical to the snoop-only harness. *)
      if coherence <> Coherence.Snoop then
        Printf.printf "coherence  : %s\n" (Coherence.protocol_name coherence);
      (match sanitize with
      | None -> ()
      | Some policy ->
        Printf.printf "sanitize   : %s\n" (Sanity.policy_name policy));
      let m =
        if fault_rate > 0. then begin
          let tweak c =
            Config.with_coherence coherence
              {
                c with
                Config.fault =
                  Voltron_fault.Fault.uniform ~seed:fault_seed
                    ~degrade_threshold:fault_threshold ~rate:fault_rate ();
              }
          in
          let r =
            Run.run_resilient ~choice ~check ?profile ~tweak ?sanitize
              ~n_cores:cores p
          in
          Printf.printf "faults     : every kind at rate %g, seed %d%s\n"
            fault_rate fault_seed
            (if fault_threshold > 0 then
               Printf.sprintf ", degrade after %d" fault_threshold
             else "");
          List.iter
            (fun (a : Run.attempt) ->
              Printf.printf "  rung     : %-14s %s on %d cores -> %s\n"
                (Voltron_fault.Fault.level_name a.Run.a_level)
                (Select.choice_name a.Run.a_choice)
                a.Run.a_n_cores
                (Machine.outcome_label a.Run.a_measurement.Run.outcome))
            r.Run.attempts;
          r.Run.final
        end
        else
          Run.run ~choice ~check ?profile ~oracle ?sanitize
            ~tweak:(Config.with_coherence coherence)
            ~sanitize_log:prerr_endline ~n_cores:cores p
      in
      let write_json () =
        match json_out with
        | None -> ()
        | Some path ->
          let metrics =
            Metrics.of_stats ~label:name ~cycles:m.Run.cycles
              ~coherence:m.Run.coh_stats ~network:m.Run.net_stats m.Run.stats
          in
          Json.write_file path
            (Json.Obj
               ([
                  ("benchmark", Json.Str name);
                  ("strategy", Json.Str strategy);
                  ("cores", Json.Int cores);
                  ("coherence", Json.Str (Coherence.protocol_name coherence));
                  ("baseline_cycles", Json.Int base);
                  ( "speedup",
                    Json.Float
                      (float_of_int base /. float_of_int m.Run.cycles)
                  );
                  ("verified", Json.Bool m.Run.verified);
                ]
               @ outcome_json m
               @ [ ("metrics", Metrics.to_json metrics) ]));
          Printf.printf "json       : wrote %s\n" path
      in
      (match m.Run.outcome with
      | Machine.Finished -> ()
      | o ->
        prerr_endline (Machine.outcome_to_string o);
        sanity_line m;
        write_json ();
        exit 1);
      Printf.printf "verified   : %b (memory matches the reference interpreter)\n"
        m.Run.verified;
      sanity_line m;
      Printf.printf "baseline   : %d cycles (1 core, sequential)\n" base;
      Printf.printf "cycles     : %d\n" m.Run.cycles;
      Printf.printf "speedup    : %.2fx\n"
        (float_of_int base /. float_of_int m.Run.cycles);
      Stats.pp_summary ~coherence:m.Run.coh_stats
        ~network:m.Run.net_stats Format.std_formatter m.Run.stats;
      Format.printf "%a@." Voltron_machine.Energy.pp m.Run.energy;
      write_json ();
      if not (m.Run.verified && sanity_clean m) then exit 1
    end
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Sweep the whole workload suite (and the micro kernels) under \
             every strategy at the given core count instead of one \
             benchmark; exits 1 if any cell fails to complete, verify or \
             pass the sanitizer.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and simulate a benchmark or VC file.")
    Term.(
      const run $ bench_arg $ file_arg $ all_arg $ cores_arg $ coherence_arg
      $ strategy_arg $ scale_arg $ optimize_arg $ unroll_arg $ fault_rate_arg
      $ fault_seed_arg $ fault_threshold_arg $ no_check_arg $ no_profile_arg
      $ sanitize_arg $ json_arg $ jobs_arg)

let plan_cmd =
  let plan bench file cores scale no_profile =
    let _, p = resolve_program bench file scale in
    let machine = Config.default ~n_cores:cores in
    let profile =
      match profile_for ~no_profile p with
      | Some pr -> pr
      | None -> Voltron_analysis.Profile.collect p
    in
    let regions = Select.plan ~machine ~profile `Hybrid p in
    if no_profile then print_endline "(selection from static profile)";
    Voltron_util.Table.print
      ~header:[ "region"; "strategy"; "dyn weight" ]
      (List.map
         (fun (r : Select.planned_region) ->
           [
             r.Select.pr_name;
             Select.strategy_name r.Select.pr_strategy;
             string_of_int r.Select.pr_weight;
           ])
         regions)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show the hybrid compiler's per-region strategy choices.")
    Term.(const plan $ bench_arg $ file_arg $ cores_arg $ scale_arg $ no_profile_arg)

let check_diag_json (d : Check.diag) =
  Json.Obj
    ([
       ( "severity",
         Json.Str
           (match d.Check.d_severity with
           | Check.Error -> "error"
           | Check.Warning -> "warning") );
     ]
    @ (match d.Check.d_loc with
      | Some l ->
        [ ("core", Json.Int l.Check.l_core); ("addr", Json.Int l.Check.l_addr) ]
      | None -> [])
    @ [ ("text", Json.Str (Check.diag_to_string d)) ])

let check_cmd =
  let check bench file all cores strategy scale json_out jobs =
    let choice = strategy_of_flag strategy in
    let targets =
      if all then Sweep.targets ~scale else [ resolve_program bench file scale ]
    in
    let strategies = if all then Run.default_strategies else [ choice ] in
    let machine = Config.default ~n_cores:cores in
    let cell name p =
      let oracle = Driver.interpret p in
      let buf = Buffer.create 256 in
      let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      let row choice =
        let s = Select.choice_name choice in
        let json status diags =
          Json.Obj
            [
              ("benchmark", Json.Str name);
              ("strategy", Json.Str s);
              ("status", Json.Str status);
              ("diagnostics", Json.List (List.map check_diag_json diags));
            ]
        in
        match Driver.compile ~machine ~choice ~oracle p with
        | { Driver.check_diags = []; _ } ->
          out "%-24s %-7s clean\n" name s;
          (0, json "clean" [])
        | { Driver.check_diags = diags; _ } ->
          out "%-24s %-7s %d warning(s)\n%s" name s (List.length diags)
            (diag_block Check.pp_diag diags);
          (0, json "warnings" diags)
        | exception Check.Failed diags ->
          out "%-24s %-7s FAILED\n%s" name s (diag_block Check.pp_diag diags);
          (1, json "failed" diags)
      in
      let rows = List.map row strategies in
      {
        Sweep.out = Buffer.contents buf;
        errs = [];
        failures = List.fold_left (fun acc (f, _) -> acc + f) 0 rows;
        value = List.map snd rows;
      }
    in
    let cells, failures = Sweep.run ~sinks:Sweep.stdio ~jobs cell targets in
    let cells = List.concat cells in
    (match json_out with
    | None -> ()
    | Some path ->
      Json.write_file path
        (Json.Obj
           [
             ("cores", Json.Int cores);
             ("failures", Json.Int failures);
             ("cells", Json.List cells);
           ]);
      Printf.printf "wrote check JSON to %s\n" path);
    if failures > 0 then begin
      Printf.eprintf "%d check failure(s)\n" failures;
      exit 1
    end
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Check every benchmark (and the micro kernels) under every \
             strategy instead of one program.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check generated code: channel balance, barrier \
          alignment, coupled PUT/GET pairing, deadlocks and data races.")
    Term.(
      const check $ bench_arg $ file_arg $ all_arg $ cores_arg $ strategy_arg
      $ scale_arg $ json_arg $ jobs_arg)

let disasm_cmd =
  let disasm bench file cores strategy scale =
    let _, p = resolve_program bench file scale in
    let machine = Config.default ~n_cores:cores in
    let compiled = Driver.compile ~machine ~choice:(strategy_of_flag strategy) p in
    Format.printf "%a" Voltron_isa.Program.pp compiled.Driver.executable
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble the generated per-core code.")
    Term.(const disasm $ bench_arg $ file_arg $ cores_arg $ strategy_arg $ scale_arg)

let asm_cmd =
  let asm file cores =
    let prog =
      match Voltron_isa.Asm.parse_file file with
      | p -> p
      | exception Voltron_isa.Asm.Error (line, msg) ->
        usage "%s:%d: %s" file line msg
    in
    let machine = Config.default ~n_cores:cores in
    let m = Machine.create machine prog in
    let result = Machine.run m in
    if result.Machine.outcome <> Machine.Finished then begin
      prerr_endline (Machine.outcome_to_string result.Machine.outcome);
      exit 1
    end;
    Printf.printf "finished in %d cycles\n" result.Machine.cycles;
    Stats.pp_summary
      ~coherence:(Coherence.total_stats (Machine.coherence m))
      ~network:(Voltron_net.Operand_network.stats (Machine.network m))
      Format.std_formatter (Machine.stats m);
    (* Show the first few data words, the usual place for results. *)
    let mem = Machine.memory m in
    let n = min 8 (Voltron_mem.Memory.size mem) in
    Printf.printf "mem[0..%d] =" (n - 1);
    for i = 0 to n - 1 do
      Printf.printf " %d" (Voltron_mem.Memory.read mem i)
    done;
    print_newline ()
  in
  let file_req =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE.s" ~doc:"Assembly source.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble and run a hand-written Voltron program.")
    Term.(const asm $ file_req $ cores_arg)

let trace_cmd =
  let trace bench file cores strategy scale limit timeline json_out =
    let _, p = resolve_program bench file scale in
    let machine = Config.default ~n_cores:cores in
    let compiled = Driver.compile ~machine ~choice:(strategy_of_flag strategy) p in
    let m = Machine.create machine compiled.Driver.executable in
    let tracer = Voltron_machine.Trace.create ~limit () in
    Machine.set_tracer m tracer;
    let result = Machine.run m in
    let finished = result.Machine.outcome = Machine.Finished in
    if not finished then
      prerr_endline (Machine.outcome_to_string result.Machine.outcome);
    Voltron_machine.Trace.report ~timeline Format.std_formatter tracer
      compiled.Driver.executable;
    (match json_out with
    | None -> ()
    | Some path ->
      Voltron_obs.Chrome_trace.write ~path ~n_cores:cores
        ~cycles:result.Machine.cycles tracer;
      Printf.printf "wrote Chrome trace to %s (open in chrome://tracing)\n" path);
    if not finished then exit 1
  in
  let limit_arg =
    Arg.(value & opt int 100_000 & info [ "limit" ] ~docv:"N" ~doc:"Events to keep.")
  in
  let timeline_arg =
    Arg.(value & opt int 60 & info [ "timeline" ] ~docv:"N" ~doc:"Events to print.")
  in
  let trace_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the events as Chrome trace-event JSON to $(docv) \
             (loadable in chrome://tracing or Perfetto).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run with a structured tracer: event timeline plus per-label hotspots.")
    Term.(
      const trace $ bench_arg $ file_arg $ cores_arg $ strategy_arg $ scale_arg
      $ limit_arg $ timeline_arg $ trace_json_arg)

let profile_cmd =
  let profile bench file cores strategy scale sample_every show_metrics
      json_out =
    let name, p = resolve_program bench file scale in
    let machine = Config.default ~n_cores:cores in
    let compiled = Driver.compile ~machine ~choice:(strategy_of_flag strategy) p in
    let m = Machine.create machine compiled.Driver.executable in
    let rp = Voltron_obs.Region_profile.attach m compiled in
    let sampler =
      if sample_every > 0 then
        Some (Voltron_obs.Sampler.attach ~every:sample_every m)
      else None
    in
    let result = Machine.run m in
    if result.Machine.outcome <> Machine.Finished then begin
      prerr_endline (Machine.outcome_to_string result.Machine.outcome);
      exit 1
    end;
    Printf.printf "benchmark  : %s\n" name;
    Printf.printf "strategy   : %s on %d cores\n" strategy cores;
    Printf.printf "cycles     : %d\n\n" result.Machine.cycles;
    Format.printf "%a" Voltron_obs.Region_profile.pp rp;
    (* When most core-cycles are not busy, the per-region table says where
       the waiting happened but not whom it waited on — point at the
       causal profiler, which does. *)
    let total = Region_profile.total_cycles rp in
    let busy =
      List.fold_left
        (fun acc r -> acc + r.Region_profile.r_busy)
        0 (Region_profile.rows rp)
    in
    let selector =
      match bench with Some b -> "-b " ^ b | None -> Printf.sprintf "--file %s" name
    in
    if total > 0 && 4 * (total - busy) > total then
      Printf.printf
        "note: %d%% of core-cycles are stall or idle; `voltron_sim blame %s \
         -c %d -s %s` attributes them to cross-core critical-path edges\n"
        (100 * (total - busy) / total)
        selector cores strategy;
    (match sampler with
    | None -> ()
    | Some s ->
      Format.printf "@.samples (every %d cycles):@.%a" sample_every
        Voltron_obs.Sampler.pp s);
    if show_metrics then
      Format.printf "@.metrics:@.%a" Metrics.pp (Metrics.snapshot ~label:name m);
    match json_out with
    | None -> ()
    | Some path ->
      let metrics = Metrics.snapshot ~label:name m in
      Json.write_file path
        (Json.Obj
           ([
              ("benchmark", Json.Str name);
              ("strategy", Json.Str strategy);
              ("cores", Json.Int cores);
              ("cycles", Json.Int result.Machine.cycles);
              ("regions", Voltron_obs.Region_profile.to_json rp);
              ("metrics", Metrics.to_json metrics);
            ]
           @
           match sampler with
           | None -> []
           | Some s -> [ ("samples", Voltron_obs.Sampler.to_json s) ]));
      Printf.printf "\nwrote profile JSON to %s\n" path
  in
  let sample_arg =
    Arg.(
      value & opt int 0
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Also record an IPC/occupancy/miss-rate time-series sample every \
             $(docv) cycles; 0 disables the sampler.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Also print the flat metrics registry (every counter and gauge).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run with per-region cycle attribution: where every core-cycle of \
          every region went (busy, each stall kind, idle), per execution mode.")
    Term.(
      const profile $ bench_arg $ file_arg $ cores_arg $ strategy_arg
      $ scale_arg $ sample_arg $ metrics_arg $ json_arg)

(* --- blame: cross-core critical path, wait-for blame, what-if ------------ *)

let blame_cmd =
  let run_with_blame ~cores ~choice ~oracle ~tweak p =
    let machine = tweak (Config.default ~n_cores:cores) in
    let compiled = Driver.compile ~machine ~choice ~oracle p in
    let m = Machine.create machine compiled.Driver.executable in
    let b = Blame.attach m compiled in
    (b, Machine.run m)
  in
  let blame bench file cores strategy scale all top net_scale validate tm_rate
      fault_seed json_out jobs =
    let choice = strategy_of_flag strategy in
    (* [err] records one failure line of the cell. *)
    let analyze ~err ~oracle name p =
      let b, result = run_with_blame ~cores ~choice ~oracle ~tweak:Fun.id p in
      match result.Machine.outcome with
      | Machine.Finished ->
        (match Blame.coverage b with
        | Ok () -> ()
        | Error e -> err (Printf.sprintf "%s: blame recording hole: %s" name e));
        let cp = Critpath.compute b in
        let rep = Critpath.report ~bench:name ~strategy ~net_scale cp in
        if rep.Critpath.r_path <> rep.Critpath.r_cycles then
          err
            (Printf.sprintf
               "%s: critical path %d cycles does not reconcile with the \
                %d-cycle run"
               name rep.Critpath.r_path rep.Critpath.r_cycles);
        Some (rep, cp)
      | o ->
        err (Printf.sprintf "%s: %s" name (Machine.outcome_to_string o));
        None
    in
    (* Predicted speedups come from rescaling edges along the recorded
       critical path; measured ones from reruns whose configuration actually
       changed the same way. The two agreeing is the causal claim. *)
    let validate_whatifs ~out ~err ~oracle name p cp =
      let base = Critpath.total cp in
      let hop = (Config.default ~n_cores:cores).Config.net_hop_cost in
      let scaled_hop = int_of_float ((net_scale *. float_of_int hop) +. 0.5) in
      let net_row =
        let predicted = Critpath.whatif_net cp ~scale:net_scale in
        let tweak c = { c with Config.net_hop_cost = scaled_hop } in
        let rerun = Run.run ~choice ~oracle ~tweak ~n_cores:cores p in
        if not (Run.completed rerun) then None
        else
          Some
            ( Printf.sprintf "net-hop-cost %d->%d" hop scaled_hop,
              float_of_int base /. float_of_int (max 1 predicted),
              float_of_int base /. float_of_int (max 1 rerun.Run.cycles) )
      in
      let tm_row =
        if tm_rate <= 0. then None
        else begin
          let tweak c =
            {
              c with
              Config.fault =
                {
                  Voltron_fault.Fault.disabled with
                  Voltron_fault.Fault.tm_abort_rate = tm_rate;
                  fault_seed;
                };
            }
          in
          let b_f, r_f = run_with_blame ~cores ~choice ~oracle ~tweak p in
          match r_f.Machine.outcome with
          | Machine.Finished ->
            let cp_f = Critpath.compute b_f in
            let injected = Critpath.total cp_f in
            let predicted = Critpath.whatif_tm cp_f in
            Some
              ( Printf.sprintf "tm-aborts %g->0" tm_rate,
                float_of_int injected /. float_of_int (max 1 predicted),
                float_of_int injected /. float_of_int base )
          | o ->
            err
              (Printf.sprintf "%s (tm injection): %s" name
                 (Machine.outcome_to_string o));
            None
        end
      in
      match List.filter_map Fun.id [ net_row; tm_row ] with
      | [] -> ()
      | rows ->
        out (Printf.sprintf "\nwhat-if validation (%s):\n" name);
        out
          (Voltron_util.Table.render
             ~header:[ "class"; "predicted"; "measured"; "error" ]
             (List.map
                (fun (cls, pred, meas) ->
                  [
                    cls;
                    Printf.sprintf "x%.3f" pred;
                    Printf.sprintf "x%.3f" meas;
                    Printf.sprintf "%.1f%%"
                      (100. *. Float.abs (pred -. meas) /. meas);
                  ])
                rows)
          ^ "\n")
    in
    (* Without --all, the one program is a one-cell sweep that also prints
       its full report. The blame run and both what-if reruns share one
       oracle. *)
    let cell name p =
      let out_buf = Buffer.create 256 and errs = ref [] in
      let out s = Buffer.add_string out_buf s in
      let err s = errs := s :: !errs in
      let oracle = Driver.interpret p in
      let rep =
        match analyze ~err ~oracle name p with
        | None -> None
        | Some (rep, cp) ->
          if not all then out (Format.asprintf "%a" (Critpath.pp_report ~top) rep);
          if validate then validate_whatifs ~out ~err ~oracle name p cp;
          Some rep
      in
      {
        Sweep.out = Buffer.contents out_buf;
        errs = List.rev !errs;
        failures = List.length !errs;
        value = rep;
      }
    in
    let targets =
      if all then Sweep.targets ~scale else [ resolve_program bench file scale ]
    in
    let reps, failures = Sweep.run ~sinks:Sweep.stdio ~jobs cell targets in
    let reps = List.filter_map Fun.id reps in
    if all then begin
      let wf (r : Critpath.report) i =
        match List.nth_opt r.Critpath.r_whatif i with
        | Some w -> Printf.sprintf "x%.2f" w.Critpath.w_speedup
        | None -> "-"
      in
      print_endline
        (Voltron_util.Table.render
           ~header:
             [ "bench"; "cycles"; "path"; "top edge"; "net what-if"; "tm what-if" ]
           (List.map
              (fun (r : Critpath.report) ->
                let top_edge =
                  match r.Critpath.r_rows with
                  | [] -> "-"
                  | b :: _ ->
                    Printf.sprintf "%s %s (%d%%)"
                      (Blame.kind_label b.Critpath.b_kind)
                      b.Critpath.b_region
                      (100 * b.Critpath.b_cycles / max 1 r.Critpath.r_cycles)
                in
                [
                  r.Critpath.r_bench;
                  string_of_int r.Critpath.r_cycles;
                  (if r.Critpath.r_path = r.Critpath.r_cycles then "exact"
                   else "MISMATCH");
                  top_edge;
                  wf r 0;
                  wf r 1;
                ])
              reps))
    end;
    (match json_out with
    | Some path when all || reps <> [] ->
      Json.write_file path
        (Json.Obj
           [ ("reports", Json.List (List.map Critpath.report_to_json reps)) ]);
      Printf.printf "wrote blame JSON to %s\n" path
    | _ -> ());
    if failures > 0 then exit 1
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Analyze the whole workload suite (and the micro kernels) \
             instead of one benchmark; exits 1 if any run fails to complete \
             or reconcile.")
  in
  let top_arg =
    Arg.(
      value & opt int 12
      & info [ "top" ] ~docv:"N" ~doc:"Blame-table rows to print.")
  in
  let net_scale_arg =
    Arg.(
      value & opt float 0.
      & info [ "net-scale" ] ~docv:"K"
          ~doc:
            "What-if factor for the per-hop network cost (0 = free wires).")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also measure each what-if estimate against a rerun with the \
             corresponding configuration change.")
  in
  let tm_rate_arg =
    Arg.(
      value & opt float 0.05
      & info [ "tm-abort-rate" ] ~docv:"R"
          ~doc:
            "Spurious TM abort rate injected for the TM what-if validation \
             (with $(b,--validate)); 0 skips it.")
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Causal profile: record wait-for blame edges, walk the cross-core \
          critical path (reconciled exactly against the run's cycle count), \
          and estimate what-if speedups per edge class.")
    Term.(
      const blame $ bench_arg $ file_arg $ cores_arg $ strategy_arg $ scale_arg
      $ all_arg $ top_arg $ net_scale_arg $ validate_arg $ tm_rate_arg
      $ fault_seed_arg $ json_arg $ jobs_arg)

(* --- analyze: abstract-interpretation diagnostics + static cost model ----- *)

let absint_diag_json (d : Absint.diag) =
  Json.Obj
    [
      ("region", Json.Str d.Absint.d_region);
      ("sid", Json.Int d.Absint.d_sid);
      ("class", Json.Str (Absint.kind_class d.Absint.d_kind));
      ("text", Json.Str (Absint.diag_to_string d));
    ]

(* Estimated cycles of one region under each mode family (None when the
   mode does not apply — no legal DOALL decomposition). *)
let region_mode_estimates ~machine ~profile est (pr : Select.planned_region) =
  let stmts = pr.Select.pr_stmts in
  [
    ("seq", Some Codegen.Seq);
    ("ilp", Some Codegen.Coupled_ilp);
    ("strands", Some Codegen.Strands);
    ("dswp", Some Codegen.Dswp);
    ( "doall",
      Option.map
        (fun dp -> Codegen.Doall dp)
        (Select.doall_plan_of_region ~machine ~profile stmts) );
  ]
  |> List.map (fun (n, s) ->
         (n, Option.map (Estimate.strategy_cycles est stmts) s))

(* analyze --all: every benchmark — diagnostics, then the static estimate
   reconciled against the obs layer's per-region cycle attribution of the
   hybrid build (PREDICT.json). Regions measured below [noise_floor] wall
   cycles are spawn/join glue below the attribution noise floor and are
   excluded from the geomean. *)
let noise_floor = 64.

let analyze_sweep ~machine ~cores ~scale ~json_out ~jobs () =
  (* One cell per benchmark: analysis, hybrid run, per-region reconcile. *)
  let cell name p =
    let buf = Buffer.create 512 in
    let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let summary = Absint.analyze p in
    let diags = Absint.diags summary in
    if diags <> [] then
      out "%s: %d diagnostic(s)\n%s" name (List.length diags)
        (diag_block Absint.pp_diag diags);
    let est = Estimate.create ~machine ~summary p in
    let compiled = Driver.compile ~machine ~choice:`Hybrid p in
    let m = Machine.create machine compiled.Driver.executable in
    let rp = Region_profile.attach m compiled in
    let result = Machine.run m in
    let measured region =
      List.fold_left
        (fun acc (r : Region_profile.row) ->
          if r.Region_profile.r_region = region then
            acc + r.Region_profile.r_cycles
          else acc)
        0 (Region_profile.rows rp)
    in
    (* One JSON row per region, and the log error of each counted one. *)
    let row (er : Estimate.row) =
      let meas =
        float_of_int (measured er.Estimate.e_region) /. float_of_int cores
      in
      let ratio = if meas > 0. then er.Estimate.e_cycles /. meas else 0. in
      let counted = meas >= noise_floor && er.Estimate.e_cycles > 0. in
      out "%-24s %-14s %-8s static %10.0f  measured %10.0f  ratio %5.2f%s\n"
        name er.Estimate.e_region er.Estimate.e_strategy er.Estimate.e_cycles
        meas ratio
        (if counted then "" else "  (below noise floor, excluded)");
      ( Json.Obj
          [
            ("benchmark", Json.Str name);
            ("region", Json.Str er.Estimate.e_region);
            ("strategy", Json.Str er.Estimate.e_strategy);
            ("static_cycles", Json.Float er.Estimate.e_cycles);
            ("measured_cycles", Json.Float meas);
            ("ratio", Json.Float ratio);
            ("counted", Json.Bool counted);
          ],
        if counted then [ abs_float (log ratio) ] else [] )
    in
    match result.Machine.outcome with
    | Machine.Finished ->
      let rows, errs =
        List.split (List.map row (Estimate.table est compiled.Driver.plan))
      in
      {
        Sweep.out = Buffer.contents buf;
        errs = [];
        failures = 0;
        value = (List.map absint_diag_json diags, rows, List.concat errs);
      }
    | _ ->
      {
        Sweep.out = Buffer.contents buf;
        errs = [ name ^ ": hybrid run did not finish" ];
        failures = 1;
        value = ([], [], []);
      }
  in
  let results, failures =
    Sweep.run ~sinks:Sweep.stdio ~jobs cell (Sweep.targets ~scale)
  in
  if failures > 0 then exit 1;
  let all_diags = List.concat_map (fun (d, _, _) -> d) results in
  let diag_count = List.length all_diags in
  let rows = List.concat_map (fun (_, r, _) -> r) results in
  let errs = List.concat_map (fun (_, _, e) -> e) results in
  let geo =
    match errs with
    | [] -> 1.
    | l -> exp (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
  in
  Printf.printf "geomean prediction error: %.1f%% over %d region(s)\n"
    ((geo -. 1.) *. 100.)
    (List.length errs);
  Printf.printf "diagnostics: %d\n" diag_count;
  (match json_out with
  | None -> ()
  | Some path ->
    Json.write_file path
      (Json.Obj
         [
           ("cores", Json.Int cores);
           ("strategy", Json.Str "hybrid");
           ("geomean_error_pct", Json.Float ((geo -. 1.) *. 100.));
           ("regions_counted", Json.Int (List.length errs));
           ("diagnostics", Json.List all_diags);
           ("rows", Json.List rows);
         ]);
    Printf.printf "wrote prediction JSON to %s\n" path);
  if diag_count > 0 then exit 1

let analyze_cmd =
  let analyze bench file all cores scale json_out jobs =
    let machine = Config.default ~n_cores:cores in
    if all then analyze_sweep ~machine ~cores ~scale ~json_out ~jobs ()
    else begin
      let name, p = resolve_program bench file scale in
      let summary = Absint.analyze p in
      let diags = Absint.diags summary in
      Printf.printf "benchmark  : %s\n" name;
      Printf.printf "diagnostics: %d\n" (List.length diags);
      print_string (diag_block Absint.pp_diag diags);
      let est = Estimate.create ~machine ~summary p in
      let profile = Estimate.static_profile est in
      let plan = Select.plan ~machine ~profile `Hybrid p in
      Printf.printf "\nstatic cycle estimates on %d cores (profile-free):\n"
        cores;
      let cells pr = region_mode_estimates ~machine ~profile est pr in
      Voltron_util.Table.print
        ~header:[ "region"; "chosen"; "seq"; "ilp"; "strands"; "dswp"; "doall" ]
        (List.map
           (fun (pr : Select.planned_region) ->
             pr.Select.pr_name
             :: Select.strategy_name pr.Select.pr_strategy
             :: List.map
                  (fun (_, c) ->
                    match c with
                    | Some c -> Printf.sprintf "%.0f" c
                    | None -> "-")
                  (cells pr))
           plan);
      (match json_out with
      | None -> ()
      | Some path ->
        Json.write_file path
          (Json.Obj
             [
               ("benchmark", Json.Str name);
               ("cores", Json.Int cores);
               ("diagnostics", Json.List (List.map absint_diag_json diags));
               ( "regions",
                 Json.List
                   (List.map
                      (fun (pr : Select.planned_region) ->
                        Json.Obj
                          [
                            ("region", Json.Str pr.Select.pr_name);
                            ( "chosen",
                              Json.Str
                                (Select.strategy_name pr.Select.pr_strategy) );
                            ( "estimates",
                              Json.Obj
                                (List.filter_map
                                   (fun (n, c) ->
                                     Option.map (fun c -> (n, Json.Float c)) c)
                                   (cells pr)) );
                          ])
                      plan) );
             ]);
        Printf.printf "wrote analysis JSON to %s\n" path);
      if diags <> [] then exit 1
    end
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Analyze every benchmark (and the micro kernels): report \
             diagnostics, then reconcile the static per-region cycle \
             estimates against the simulator's per-region attribution of \
             the hybrid build and print the geomean prediction error \
             (written to the $(b,--json) file as PREDICT rows).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Abstract interpretation over the HIR: value-range diagnostics \
          (provable out-of-bounds subscripts, reads of never-written \
          scalars or cells, dead stores) and a profile-free per-region, \
          per-mode static cycle estimate. Exits 1 when diagnostics are \
          reported.")
    Term.(
      const analyze $ bench_arg $ file_arg $ all_arg $ cores_arg $ scale_arg
      $ json_arg $ jobs_arg)

let fuzz_cmd =
  let fuzz seed index count cores strategies coherence_s size no_minimize
      corpus emit sanitize_s jobs =
    let sanitize = sanitize_of_flag sanitize_s in
    let strategies =
      match strategies with
      | "" -> None
      | s -> Some (List.map strategy_of_flag (String.split_on_char ',' s))
    in
    let coherence =
      match coherence_s with
      | "" -> None
      | s ->
        Some
          (List.map
             (fun p -> or_usage (Coherence.protocol_of_string (String.trim p)))
             (String.split_on_char ',' s))
    in
    let cores =
      match cores with
      | "" -> None
      | s ->
        Some
          (List.map
             (fun c ->
               match int_of_string_opt (String.trim c) with
               | Some n when n > 0 -> n
               | _ -> usage "bad core count %s" c)
             (String.split_on_char ',' s))
    in
    let on_program =
      match emit with
      | None -> fun ~seed:_ _ -> ()
      | Some dir ->
        Voltron_gen.Campaign.mkdir_p dir;
        fun ~seed p ->
          let path = Filename.concat dir (Printf.sprintf "fuzz_s%d.vc" seed) in
          let oc = open_out path in
          output_string oc (Voltron_gen.Gen.render p);
          close_out oc
    in
    let report =
      Voltron_gen.Campaign.run ?strategies ?cores ?coherence ?sanitize ~size
        ~minimize_findings:(not no_minimize) ~on_program ~log:print_endline
        ~jobs:(Sweep.jobs jobs) ~index ~seed ~count ()
    in
    Printf.printf
      "fuzz: %d program(s), %d simulation(s), %d checker warning(s), %d \
       finding(s)\n"
      report.Voltron_gen.Campaign.r_programs report.Voltron_gen.Campaign.r_runs
      report.Voltron_gen.Campaign.r_warnings
      (List.length report.Voltron_gen.Campaign.r_findings);
    List.iter
      (fun f ->
        let path = Voltron_gen.Campaign.write_reproducer ~dir:corpus f in
        Printf.printf "  reproducer: %s\n" path)
      report.Voltron_gen.Campaign.r_findings;
    if report.Voltron_gen.Campaign.r_findings <> [] then exit 1
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed. Each cell's generator seed is derived from the \
             campaign seed and the cell index by an indexed SplitMix64 \
             stream split.")
  in
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "index" ] ~docv:"K"
          ~doc:
            "First campaign cell index. Reproducer headers name the \
             (seed, index) pair that regenerates a finding's program.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"How many programs to generate and run.")
  in
  let cores_list_arg =
    Arg.(
      value & opt string ""
      & info [ "cores" ] ~docv:"LIST"
          ~doc:"Comma-separated core counts to test (default 2,4,8).")
  in
  let strategies_arg =
    Arg.(
      value & opt string ""
      & info [ "strategies" ] ~docv:"LIST"
          ~doc:
            "Comma-separated strategies to test (default \
             seq,ilp,tlp,llp,hybrid).")
  in
  let coherence_list_arg =
    Arg.(
      value & opt string ""
      & info [ "coherence" ] ~docv:"LIST"
          ~doc:
            "Comma-separated coherence backends to diff (default \
             snoop,directory — every campaign cross-checks both).")
  in
  let size_arg =
    Arg.(
      value & opt int 24
      & info [ "size" ] ~docv:"N" ~doc:"Statement budget per generated program.")
  in
  let no_minimize_arg =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Write findings unshrunk instead of minimizing them first.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory that receives minimized reproducers on a finding.")
  in
  let emit_arg =
    Arg.(
      value & opt (some string) None
      & info [ "emit" ] ~docv:"DIR"
          ~doc:"Also write every generated program to $(docv) (for triage).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random VC programs against the interpreter \
          oracle across the strategy/core matrix, with shrinking and \
          reproducer output.")
    Term.(
      const fuzz $ seed_arg $ index_arg $ count_arg $ cores_list_arg
      $ strategies_arg $ coherence_list_arg $ size_arg $ no_minimize_arg
      $ corpus_arg $ emit_arg $ sanitize_arg $ jobs_arg)

let list_cmd =
  let list () =
    List.iter
      (fun (b : Suite.benchmark) ->
        Printf.printf "%-12s (ilp %d%% / tlp %d%% / llp %d%% / seq %d%%)\n"
          b.Suite.bench_name b.Suite.bench_mix.Suite.ilp b.Suite.bench_mix.Suite.tlp
          b.Suite.bench_mix.Suite.llp b.Suite.bench_mix.Suite.seq)
      Suite.all;
    print_endline "micro:gsm_llp micro:gzip_strands micro:gsm_ilp"
  in
  Cmd.v (Cmd.info "list" ~doc:"List available benchmarks.") Term.(const list $ const ())

let () =
  let info =
    Cmd.info "voltron_sim" ~version:"1.0"
      ~doc:"Voltron dual-mode multicore simulator and compiler"
  in
  (* The one exception rule: a static-check failure and any other escaped
     exception both exit 1, so no run ends in cmdliner's exit 125. *)
  match
    Cmd.eval ~catch:false ~term_err:2
      (Cmd.group info
         [
           run_cmd;
           plan_cmd;
           profile_cmd;
           blame_cmd;
           analyze_cmd;
           check_cmd;
           disasm_cmd;
           asm_cmd;
           trace_cmd;
           fuzz_cmd;
           list_cmd;
         ])
  with
  | code -> exit code
  | exception Check.Failed diags ->
    prerr_string ("static check failed:\n" ^ diag_block Check.pp_diag diags);
    exit 1
  | exception e ->
    prerr_endline ("internal error: " ^ Printexc.to_string e);
    exit 1
