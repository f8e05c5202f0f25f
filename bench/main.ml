(* The benchmark harness: regenerates every figure of the paper's
   evaluation (§5.2) as printed series, plus Bechamel micro-benchmarks of
   the toolchain itself (one Test.make per figure pipeline).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig10 fig13  # specific figures
     dune exec bench/main.exe -- quick        # reduced-scale, no bechamel
     dune exec bench/main.exe -- bechamel     # toolchain timing only
     dune exec bench/main.exe -- json --scale 0.2  # write BENCH.json

   Shape targets (paper): 2-core averages ILP 1.23 / TLP 1.16 / LLP 1.18,
   hybrid 1.46; 4-core 1.33 / 1.23 / 1.37, hybrid 1.83; decoupled mode
   well below coupled mode on cache-miss stalls (Fig. 12); hybrid at least
   the best single strategy per benchmark (Fig. 13). Measured numbers are
   recorded in EXPERIMENTS.md. *)

module E = Voltron.Experiments
module Suite = Voltron_workloads.Suite
module Pool = Voltron_pool.Pool
module Campaign = Voltron_gen.Campaign
module Json = Voltron_obs.Json
module Metrics = Voltron_obs.Metrics
module Blame = Voltron_obs.Blame
module Critpath = Voltron_obs.Critpath
module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Driver = Voltron_compiler.Driver

let line () = print_endline (String.make 78 '=')

let run_figure ~scale ~jobs name =
  line ();
  (match name with
  | "fig3" -> E.print_fig3 (E.fig3 ~scale ~jobs ())
  | "fig10" -> E.print_fig10 (E.fig10 ~scale ~jobs ())
  | "fig11" -> E.print_fig11 (E.fig11 ~scale ~jobs ())
  | "fig12" -> E.print_fig12 (E.fig12 ~scale ~jobs ())
  | "fig13" -> E.print_fig13 (E.fig13 ~scale ~jobs ())
  | "fig14" -> E.print_fig14 (E.fig14 ~scale ~jobs ())
  | "micro" -> E.print_micro (E.micro ~scale ~jobs ())
  | "scaling" ->
    let rows = E.scaling ~scale ~jobs () in
    E.print_scaling rows;
    print_newline ();
    E.print_crossover (E.crossover rows)
  | "resilience" -> E.print_resilience (E.resilience ~scale ~jobs ())
  | other ->
    Printf.eprintf "unknown figure: %s\n" other;
    exit 2);
  print_newline ()

let run_ablations ~scale () =
  line ();
  print_endline "Ablations (design-choice studies beyond the paper's figures)";
  List.iter
    (fun (title, (ablation : ?scale:float -> unit -> E.ablation_row list)) ->
      E.print_ablations ~title (ablation ~scale ());
      print_newline ())
    [
      ("A1: dual-mode value — hybrid vs committing to one mode (4 cores)", E.ablation_modes);
      ("A2: queue channel capacity (epic, forced TLP, 4 cores)", E.ablation_capacity);
      ( "A3: main-memory latency — decoupled tolerance vs coupled fragility (179.art, 4 cores)",
        E.ablation_memlat );
      ( "A4: TM mis-speculation — profiled clean, run with collisions (scatter RMW, 4 cores)",
        E.ablation_tm );
      ("A5: core scaling, hybrid (coupled groups capped at 4)", E.ablation_scaling);
      ( "A6: if-conversion — predicating away a strand loop's branch (forced TLP, 4 cores)",
        E.ablation_ifconv );
      ( "A7: energy and EDP — 4-core hybrid vs 1-core baseline (first-order model)",
        E.ablation_energy );
      ( "A8: one wide-issue core vs four simple Voltron cores (speedup over 1-issue serial)",
        E.ablation_issue_width );
    ]

let figures =
  [
    "fig3"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "micro"; "scaling";
    "resilience";
  ]

(* --- JSON export (BENCH.json) ---------------------------------------------- *)

let json_of_per_type rows =
  Json.List
    (List.map
       (fun (r : E.per_type_speedup) ->
         Json.Obj
           [
             ("bench", Json.Str r.E.bench);
             ("ilp", Json.Float r.E.sp_ilp);
             ("tlp", Json.Float r.E.sp_tlp);
             ("llp", Json.Float r.E.sp_llp);
           ])
       rows)

let json_of_figure ~scale ~jobs = function
  | "fig3" ->
    Json.List
      (List.map
         (fun (c : E.classification) ->
           Json.Obj
             [
               ("bench", Json.Str c.E.cl_bench);
               ("ilp_pct", Json.Float c.E.pct_ilp);
               ("tlp_pct", Json.Float c.E.pct_tlp);
               ("llp_pct", Json.Float c.E.pct_llp);
               ("single_pct", Json.Float c.E.pct_single);
             ])
         (E.fig3 ~scale ~jobs ()))
  | "fig10" -> json_of_per_type (E.fig10 ~scale ~jobs ())
  | "fig11" -> json_of_per_type (E.fig11 ~scale ~jobs ())
  | "fig12" ->
    Json.List
      (List.map
         (fun (s : E.stall_breakdown) ->
           Json.Obj
             [
               ("bench", Json.Str s.E.sb_bench);
               ("coupled_i", Json.Float s.E.coupled_i);
               ("coupled_d", Json.Float s.E.coupled_d);
               ("coupled_other", Json.Float s.E.coupled_other);
               ("decoupled_i", Json.Float s.E.decoupled_i);
               ("decoupled_d", Json.Float s.E.decoupled_d);
               ("decoupled_recv", Json.Float s.E.decoupled_recv);
               ("decoupled_pred", Json.Float s.E.decoupled_pred);
               ("decoupled_sync", Json.Float s.E.decoupled_sync);
             ])
         (E.fig12 ~scale ~jobs ()))
  | "fig13" ->
    Json.List
      (List.map
         (fun (h : E.hybrid_speedup) ->
           Json.Obj
             [
               ("bench", Json.Str h.E.hs_bench);
               ("cores2", Json.Float h.E.hs_2core);
               ("cores4", Json.Float h.E.hs_4core);
             ])
         (E.fig13 ~scale ~jobs ()))
  | "fig14" ->
    Json.List
      (List.map
         (fun (m : E.mode_split) ->
           Json.Obj
             [
               ("bench", Json.Str m.E.ms_bench);
               ("coupled_pct", Json.Float m.E.coupled_pct);
               ("decoupled_pct", Json.Float m.E.decoupled_pct);
             ])
         (E.fig14 ~scale ~jobs ()))
  | "micro" ->
    Json.List
      (List.map
         (fun (m : E.micro_result) ->
           Json.Obj
             [
               ("name", Json.Str m.E.mi_name);
               ("paper", Json.Float m.E.mi_paper);
               ("measured", Json.Float m.E.mi_measured);
             ])
         (E.micro ~scale ~jobs ()))
  | "scaling" ->
    let rows = E.scaling ~scale ~jobs () in
    Json.Obj
      [
        ( "rows",
          Json.List
            (List.map
               (fun (r : E.scaling_row) ->
                 Json.Obj
                   [
                     ("bench", Json.Str r.E.sc_bench);
                     ("class", Json.Str r.E.sc_class);
                     ("cores", Json.Int r.E.sc_cores);
                     ("snoop_cycles", Json.Int r.E.sc_snoop_cycles);
                     ("directory_cycles", Json.Int r.E.sc_dir_cycles);
                     ("snoop_speedup", Json.Float r.E.sc_snoop);
                     ("directory_speedup", Json.Float r.E.sc_directory);
                   ])
               rows) );
        ( "crossover",
          Json.List
            (List.map
               (fun (c : E.crossover_row) ->
                 Json.Obj
                   [
                     ("class", Json.Str c.E.cx_class);
                     ("cores", Json.Int c.E.cx_cores);
                     ("snoop", Json.Float c.E.cx_snoop);
                     ("directory", Json.Float c.E.cx_directory);
                     ("winner", Json.Str c.E.cx_winner);
                   ])
               (E.crossover rows)) );
      ]
  | "resilience" ->
    Json.List
      (List.map
         (fun (r : E.resilience_row) ->
           Json.Obj
             [
               ("bench", Json.Str r.E.rs_bench);
               ("rate", Json.Float r.E.rs_rate);
               ("level", Json.Str r.E.rs_level);
               ("cycles", Json.Int r.E.rs_cycles);
               ("overhead", Json.Float r.E.rs_overhead);
               ("speedup", Json.Float r.E.rs_speedup);
               ("faults", Json.Int r.E.rs_faults);
               ("retries", Json.Int r.E.rs_retries);
               ("ecc", Json.Int r.E.rs_ecc);
               ("aborts", Json.Int r.E.rs_aborts);
               ("verified", Json.Bool r.E.rs_verified);
             ])
         (E.resilience ~scale ~jobs ()))
  | other ->
    Printf.eprintf "unknown figure: %s\n" other;
    exit 2

(* Key counters per benchmark: one 4-core hybrid run each, with the unified
   metrics record alongside its speedup. Cells are independent, so they fan
   out on the pool; the list comes back in benchmark order either way. *)
let json_of_counters ~scale ~jobs () =
  Array.to_list
  @@ Pool.parallel_map ~jobs
    (fun (b : Suite.benchmark) ->
      let name = b.Suite.bench_name in
      let p = b.Suite.build ~scale () in
      let oracle = Voltron_compiler.Driver.interpret p in
      let base = Voltron.Run.baseline_cycles ~oracle p in
      let m = Voltron.Run.run ~oracle ~n_cores:4 p in
      let metrics =
        Metrics.of_stats ~label:name ~cycles:m.Voltron.Run.cycles
          ~coherence:m.Voltron.Run.coh_stats ~network:m.Voltron.Run.net_stats
          m.Voltron.Run.stats
      in
      ( name,
        Json.Obj
          [
            ("baseline_cycles", Json.Int base);
            ("cycles", Json.Int m.Voltron.Run.cycles);
            ( "speedup",
              Json.Float (float_of_int base /. float_of_int m.Voltron.Run.cycles)
            );
            ("verified", Json.Bool m.Voltron.Run.verified);
            ("metrics", Metrics.to_json metrics);
          ] ))
    (Array.of_list Suite.all)

let run_json ~scale ~jobs wanted =
  let wanted = if wanted = [] then figures else wanted in
  let path = "BENCH.json" in
  Printf.printf "collecting %s (scale %.2f, jobs %d) ...\n%!"
    (String.concat " " wanted) scale jobs;
  let figs = List.map (fun f -> (f, json_of_figure ~scale ~jobs f)) wanted in
  let counters = json_of_counters ~scale ~jobs () in
  Json.write_file path
    (Json.Obj
       [
         ("scale", Json.Float scale);
         ("figures", Json.Obj figs);
         ("benchmarks", Json.Obj counters);
       ]);
  Printf.printf "wrote %s\n" path

(* --- perf: simulator wall-clock throughput (PERF.json) --------------------- *)

(* Measures the cycle simulator itself — simulated cycles per host second
   over the 4-core hybrid workload sweep. Compilation happens outside the
   timed section, so the number tracks the Machine.run hot loop and nothing
   else. Each invocation appends one entry to PERF.json's series, so the
   speedup history is a recorded artifact rather than a claim; re-baseline
   by replacing bench/perf_baseline.json with the latest entry (see
   DESIGN.md §10). *)

type perf_row = { pw_bench : string; pw_cycles : int; pw_host_s : float }

let host_cores () = Domain.recommended_domain_count ()

(* The measured tree's commit: [git rev-parse --short HEAD], suffixed
   "-dirty" when tracked files differ from it or git cannot tell (the
   entry then measures uncommitted changes on top of that commit), or
   "unknown" outside a git checkout. *)
let git_commit () =
  let output cmd =
    match Unix.open_process_in cmd with
    | exception Unix.Unix_error _ -> None
    | ic -> (
      let out = String.trim (In_channel.input_all ic) in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some out
      | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None)
  in
  match output "git rev-parse --short HEAD 2>/dev/null" with
  | None | Some "" -> "unknown"
  | Some hash -> (
    match output "git status --porcelain --untracked-files=no 2>/dev/null" with
    | Some "" -> hash
    | Some _ | None -> hash ^ "-dirty")

let read_json_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.parse s with
  | Ok v -> Some v
  | Error e ->
    Printf.eprintf "warning: %s does not parse as JSON (%s); ignoring it\n" path e;
    None

(* The host-parallel leg of perf mode: the same 4-core hybrid sweep, but
   one compile+run cell per benchmark fanned out on the work-stealing
   pool. Unlike the serial leg this times compilation too (it happens
   inside the cell), so its cycles_per_sec is not comparable to the
   serial entry — the interesting trend is this entry against its own
   history and against the jobs=1 run of the same cell shape. *)
let run_parallel_sweep ~scale ~machine ~jobs ~commit () =
  let cell (b : Suite.benchmark) =
    let p = b.Suite.build ~scale () in
    let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
    let m = Machine.create machine compiled.Driver.executable in
    let r = Machine.run m in
    (match r.Machine.outcome with
    | Machine.Finished -> ()
    | Machine.Out_of_cycles | Machine.Deadlock _ | Machine.Fault_limit _
    | Machine.Stopped _ ->
      failwith (b.Suite.bench_name ^ " did not finish"));
    r.Machine.cycles
  in
  let benches = Array.of_list Suite.all in
  let t0 = Unix.gettimeofday () in
  let cycles = Pool.parallel_map ~jobs cell benches in
  let host = Unix.gettimeofday () -. t0 in
  let total = Array.fold_left ( + ) 0 cycles in
  Printf.printf
    "  parallel sweep (-j %d): %10d cycles %8.3fs %12.0f cyc/s (compile included)\n%!"
    jobs total host
    (float_of_int total /. host);
  Json.Obj
    [
      ("mode", Json.Str "sweep-parallel");
      ("scale", Json.Float scale);
      ("n_cores", Json.Int 4);
      ("jobs", Json.Int jobs);
      ("host_cores", Json.Int (host_cores ()));
      ("commit", Json.Str commit);
      ("includes_compile", Json.Bool true);
      ("total_cycles", Json.Int total);
      ("total_host_s", Json.Float host);
      ("cycles_per_sec", Json.Float (float_of_int total /. host));
    ]

(* Fuzz-campaign throughput, jobs=1 vs -j N over the same cell set: the
   ratio is the pool's real-world win (the acceptance metric from
   DESIGN.md 15 — about linear up to the physical core count). *)
let run_fuzz_throughput ~jobs ~commit () =
  let count = 32 and seed = 7 in
  let time j =
    let t0 = Unix.gettimeofday () in
    let r =
      Campaign.run ~jobs:j ~minimize_findings:false
        ~log:(fun _ -> ())
        ~seed ~count ()
    in
    (Unix.gettimeofday () -. t0, r.Campaign.r_runs)
  in
  let serial_s, runs = time 1 in
  let par_s, _ = time jobs in
  let speedup = serial_s /. par_s in
  Printf.printf
    "  fuzz throughput: %d programs (%d sims) %8.3fs at -j 1, %8.3fs at -j %d \
     (%.2fx)\n%!"
    count runs serial_s par_s jobs speedup;
  Json.Obj
    [
      ("mode", Json.Str "fuzz");
      ("jobs", Json.Int jobs);
      ("host_cores", Json.Int (host_cores ()));
      ("commit", Json.Str commit);
      ("programs", Json.Int count);
      ("simulations", Json.Int runs);
      ("serial_host_s", Json.Float serial_s);
      ("parallel_host_s", Json.Float par_s);
      ("programs_per_sec", Json.Float (float_of_int count /. par_s));
      ("speedup_vs_serial", Json.Float speedup);
    ]

let run_perf ~scale ~baseline ~jobs () =
  let machine = Config.default ~n_cores:4 in
  let commit = git_commit () in
  Printf.printf
    "perf: 4-core hybrid sweep over %d workloads (scale %.2f, fast_forward %b)\n%!"
    (List.length Suite.all) scale machine.Config.fast_forward;
  let rows =
    List.map
      (fun (b : Suite.benchmark) ->
        let p = b.Suite.build ~scale () in
        let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
        let m = Machine.create machine compiled.Driver.executable in
        let t0 = Unix.gettimeofday () in
        let r = Machine.run m in
        let host = Unix.gettimeofday () -. t0 in
        (match r.Machine.outcome with
        | Machine.Finished -> ()
        | Machine.Out_of_cycles | Machine.Deadlock _ | Machine.Fault_limit _
        | Machine.Stopped _ ->
          Printf.eprintf "perf: %s did not finish\n" b.Suite.bench_name;
          exit 1);
        let row =
          { pw_bench = b.Suite.bench_name; pw_cycles = r.Machine.cycles; pw_host_s = host }
        in
        Printf.printf "  %-16s %10d cycles %8.3fs %12.0f cyc/s\n%!" row.pw_bench
          row.pw_cycles row.pw_host_s
          (float_of_int row.pw_cycles /. row.pw_host_s);
        row)
      Suite.all
  in
  let total_cycles = List.fold_left (fun a r -> a + r.pw_cycles) 0 rows in
  let total_host = List.fold_left (fun a r -> a +. r.pw_host_s) 0. rows in
  let cps = float_of_int total_cycles /. total_host in
  Printf.printf "  %-16s %10d cycles %8.3fs %12.0f cyc/s\n" "TOTAL" total_cycles
    total_host cps;
  let entry =
    Json.Obj
      [
        ("mode", Json.Str "sweep");
        ("scale", Json.Float scale);
        ("n_cores", Json.Int 4);
        ("jobs", Json.Int 1);
        ("host_cores", Json.Int (host_cores ()));
        ("commit", Json.Str commit);
        ("fast_forward", Json.Bool machine.Config.fast_forward);
        ("total_cycles", Json.Int total_cycles);
        ("total_host_s", Json.Float total_host);
        ("cycles_per_sec", Json.Float cps);
        ( "workloads",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("bench", Json.Str r.pw_bench);
                     ("cycles", Json.Int r.pw_cycles);
                     ("host_s", Json.Float r.pw_host_s);
                     ( "cycles_per_sec",
                       Json.Float (float_of_int r.pw_cycles /. r.pw_host_s) );
                   ])
               rows) );
      ]
  in
  let par_entry = run_parallel_sweep ~scale ~machine ~jobs ~commit () in
  let fuzz_entry = run_fuzz_throughput ~jobs ~commit () in
  let entries = [ entry; par_entry; fuzz_entry ] in
  let prior =
    if Sys.file_exists "PERF.json" then
      match read_json_file "PERF.json" with
      | Some v ->
        Option.value ~default:[]
          (Option.bind (Json.member "series" v) Json.to_list_opt)
      | None -> []
    else []
  in
  Json.write_file "PERF.json" (Json.Obj [ ("series", Json.List (prior @ entries)) ]);
  Printf.printf "wrote PERF.json (%d series entries)\n"
    (List.length prior + List.length entries);
  match baseline with
  | None -> ()
  | Some path -> (
    match read_json_file path with
    | None ->
      Printf.eprintf "perf: cannot read baseline %s\n" path;
      exit 1
    | Some v -> (
      match Option.bind (Json.member "cycles_per_sec" v) Json.to_float_opt with
      | None ->
        Printf.eprintf "perf: baseline %s has no cycles_per_sec\n" path;
        exit 1
      | Some base ->
        let floor = 0.7 *. base in
        Printf.printf "baseline %s: %.0f cyc/s (floor %.0f, measured %.0f)\n" path
          base floor cps;
        if cps < floor then begin
          Printf.eprintf
            "perf: throughput regression — %.0f cyc/s is more than 30%% below \
             the %.0f cyc/s baseline\n"
            cps base;
          exit 1
        end))

(* --- Bechamel: wall-clock cost of each figure's pipeline ------------------- *)

(* parallel_map overhead on no-op cells: what the pool itself costs —
   task publication, stealing, wakeup and frontier bookkeeping with zero
   useful work per cell. The jobs=1 entry is the serial-path floor. *)
let pool_input = Array.init 256 Fun.id

let bechamel_tests =
  let open Bechamel in
  let slice = [ "cjpeg" ] in
  let pool_group =
    Test.make_grouped ~name:"pool"
      [
        Test.make ~name:"noop-j1"
          (Staged.stage (fun () -> Pool.parallel_map ~jobs:1 Fun.id pool_input));
        Test.make ~name:"noop-j4"
          (Staged.stage (fun () -> Pool.parallel_map ~jobs:4 Fun.id pool_input));
      ]
  in
  let figures_group =
    Test.make_grouped ~name:"figures"
    [
      Test.make ~name:"fig3" (Staged.stage (fun () -> E.fig3 ~scale:0.2 ~benches:slice ()));
      Test.make ~name:"fig10" (Staged.stage (fun () -> E.fig10 ~scale:0.2 ~benches:slice ()));
      Test.make ~name:"fig11" (Staged.stage (fun () -> E.fig11 ~scale:0.2 ~benches:slice ()));
      Test.make ~name:"fig12" (Staged.stage (fun () -> E.fig12 ~scale:0.2 ~benches:slice ()));
      Test.make ~name:"fig13" (Staged.stage (fun () -> E.fig13 ~scale:0.2 ~benches:slice ()));
      Test.make ~name:"fig14" (Staged.stage (fun () -> E.fig14 ~scale:0.2 ~benches:slice ()));
      Test.make ~name:"micro" (Staged.stage (fun () -> E.micro ~scale:0.2 ()));
      (* The causal-profiler pipeline end to end: hooks attached, run,
         critical-path walk and blame report. Compared against fig13 (same
         workload, hooks detached) this isolates the recording+walk cost. *)
      Test.make ~name:"blame"
        (Staged.stage (fun () ->
             let machine = Config.default ~n_cores:4 in
             let b = List.find (fun b -> b.Suite.bench_name = "cjpeg") Suite.all in
             let p = b.Suite.build ~scale:0.2 () in
             let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
             let m = Machine.create machine compiled.Driver.executable in
             let blame = Blame.attach m compiled in
             let _ = Machine.run m in
             Critpath.report ~bench:"cjpeg" ~strategy:"hybrid"
               (Critpath.compute blame)));
    ]
  in
  Test.make_grouped ~name:"bench" [ figures_group; pool_group ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  line ();
  print_endline
    "Bechamel: time per figure pipeline (compile + simulate, cjpeg slice at scale 0.2)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances bechamel_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est /. 1e6) :: !rows
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, ms) -> Printf.printf "  %-24s %10.3f ms/run\n" name ms)
    (List.sort compare !rows);
  print_newline ()

let modes = [ "quick"; "bechamel"; "ablations"; "json"; "perf" ]

(* Strict argument parsing: an unknown figure or mode name is an error, not
   a silent no-op (a typo like "fig12 " used to run the whole suite). *)
let parse_args args =
  let rec go scale baseline jobs acc = function
    | [] -> (scale, baseline, jobs, List.rev acc)
    | "--scale" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 0. -> go (Some f) baseline jobs acc rest
      | Some _ | None ->
        Printf.eprintf "bad --scale value: %s\n" v;
        exit 2)
    | [ "--scale" ] ->
      Printf.eprintf "--scale needs a value\n";
      exit 2
    | "--baseline" :: path :: rest -> go scale (Some path) jobs acc rest
    | [ "--baseline" ] ->
      Printf.eprintf "--baseline needs a path\n";
      exit 2
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> go scale baseline (Some j) acc rest
      | Some _ | None ->
        Printf.eprintf "bad --jobs value: %s\n" v;
        exit 2)
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 2
    | a :: rest when List.mem a figures || List.mem a modes ->
      go scale baseline jobs (a :: acc) rest
    | a :: _ ->
      Printf.eprintf
        "unknown argument: %s\n  figures: %s\n  modes: %s\n  options: --scale F \
         --baseline PERF_ENTRY.json -j/--jobs N\n"
        a (String.concat " " figures) (String.concat " " modes);
      exit 2
  in
  go None None None [] args

let () =
  let raw = List.tl (Array.to_list Sys.argv) in
  let scale_override, baseline, jobs_override, args = parse_args raw in
  let default_scale = if List.mem "quick" args then 0.25 else 1.0 in
  let scale = Option.value scale_override ~default:default_scale in
  (* -j N, else VOLTRON_JOBS, else every recommended domain. jobs=1 is
     the bit-identical serial reference, like the simulator CLI. *)
  let jobs = match jobs_override with Some j -> j | None -> Pool.default_jobs () in
  let wanted = List.filter (fun a -> List.mem a figures) args in
  let t0 = Unix.gettimeofday () in
  if List.mem "perf" args then run_perf ~scale ~baseline ~jobs ()
  else if List.mem "json" args then run_json ~scale ~jobs wanted
  else if args = [ "bechamel" ] then run_bechamel ()
  else if args = [ "ablations" ] then run_ablations ~scale ()
  else begin
    let wanted = if wanted = [] then figures else wanted in
    Printf.printf
      "Voltron evaluation harness — reproducing the paper's figures (scale %.2f)\n"
      scale;
    List.iter (run_figure ~scale ~jobs) wanted;
    if not (List.mem "quick" args) then begin
      run_ablations ~scale ();
      run_bechamel ()
    end
  end;
  line ();
  Printf.printf "total harness time: %.1fs\n" (Unix.gettimeofday () -. t0)
