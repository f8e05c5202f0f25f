(* Performance-safety tests.

   The simulator's hot-path machinery (predecoded images, the stall
   fast-forward, the allocation-free sweep) is licensed by one promise: no
   architecturally visible number changes. These tests hold it to that —
   a full differential sweep of the workload suite with fast-forward on
   vs. off, comparing outcome, cycle count, memory checksum, every Stats
   counter and every per-region attribution cell bit-for-bit — and pin
   the per-cycle minor-heap allocation to a budget so the sweep cannot
   quietly regress into a GC-bound loop. *)

module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Driver = Voltron_compiler.Driver
module Region_profile = Voltron_obs.Region_profile

let scale = 0.15

type snapshot = {
  outcome_tag : string;
  cycles : int;
  checksum : int;
  stats : Stats.t;
  regions : Region_profile.row list;
}

let outcome_tag (o : Machine.outcome) =
  match o with
  | Machine.Finished -> "finished"
  | Machine.Out_of_cycles -> "out-of-cycles"
  | Machine.Deadlock _ -> "deadlock"
  | Machine.Fault_limit _ -> "fault-limit"
  | Machine.Stopped _ -> "stopped"

let run_one ?(coherence = Voltron_mem.Coherence.Snoop) ~ff ~choice ~cores program =
  let machine =
    Config.with_coherence coherence
      { (Config.default ~n_cores:cores) with Config.fast_forward = ff }
  in
  let compiled = Driver.compile ~machine ~choice ~check:false program in
  let m = Machine.create machine compiled.Driver.executable in
  (* Attribution stays attached under fast-forward (bulk credit must land
     in the very same cells), so the differential covers it too. *)
  let rp = Region_profile.attach m compiled in
  let result = Machine.run m in
  {
    outcome_tag = outcome_tag result.Machine.outcome;
    cycles = result.Machine.cycles;
    checksum = result.Machine.checksum;
    stats = Machine.stats m;
    regions = Region_profile.rows rp;
  }

let choices =
  [ (`Seq, "seq"); (`Ilp, "ilp"); (`Tlp, "tlp"); (`Llp, "llp"); (`Hybrid, "hybrid") ]

(* Fast-forward on and off must be indistinguishable in everything but
   wall-clock. Structural equality is exact here: [Stats.t] and
   [Region_profile.row] are records of ints, strings and int arrays. *)
let check_same label ~fast ~slow =
  Alcotest.(check string) (label ^ " outcome") slow.outcome_tag fast.outcome_tag;
  Alcotest.(check int) (label ^ " cycles") slow.cycles fast.cycles;
  Alcotest.(check int) (label ^ " checksum") slow.checksum fast.checksum;
  Alcotest.(check bool) (label ^ " stats bit-identical") true (slow.stats = fast.stats);
  Alcotest.(check bool)
    (label ^ " attribution bit-identical") true (slow.regions = fast.regions)

(* Every benchmark x every strategy x {2, 4} cores. *)
let test_differential () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let program = b.Suite.build ~scale () in
      List.iter
        (fun (choice, cname) ->
          List.iter
            (fun cores ->
              let label =
                Printf.sprintf "%s/%s/%d cores" b.Suite.bench_name cname cores
              in
              let fast = run_one ~ff:true ~choice ~cores program in
              let slow = run_one ~ff:false ~choice ~cores program in
              check_same label ~fast ~slow)
            [ 2; 4 ])
        choices)
    Suite.all

(* 16 cores on the directory backend: the densest queue-mode traffic, so
   the network's wake queries (next value, next spawn, broadcast arrival)
   bound many fast-forward windows, and the verdict memo is dropped by
   the most network events. The programs are the suite's most decoupled
   under the hybrid plan at this size; ILP runs them coupled across all
   16 cores, where one core's miss holds the whole group (the lock-step
   window). *)
let test_differential_mesh16 () =
  List.iter
    (fun name ->
      let program = (Suite.by_name name).Suite.build ~scale () in
      List.iter
        (fun (choice, cname) ->
          let label = Printf.sprintf "%s/%s/16 cores/directory" name cname in
          let run ff =
            run_one ~coherence:Voltron_mem.Coherence.Directory ~ff ~choice ~cores:16
              program
          in
          check_same label ~fast:(run true) ~slow:(run false))
        [ (`Hybrid, "hybrid"); (`Tlp, "tlp"); (`Ilp, "ilp") ])
    [ "164.gzip"; "179.art"; "183.equake"; "256.bzip2"; "epic" ]

(* Per-cycle minor-heap budget, in words. The caches are flat int arrays,
   the blocker's verdicts (scoreboard and RECV alike) and the taken-branch
   target allocate nothing, and the end-of-cycle checks build no closure,
   so what still allocates is small and bounded: a [Net.recv]/[Net.get]
   result per operand received, a victim pair per eviction of a valid
   line, and TM read/write set entries per transactional access. Measured
   ~1.5 on this workload (~7.7 while each blocked RECV built its [W_recv]
   verdict); the budget leaves ~3x headroom so a regression that
   reintroduces per-cycle closures, option results or per-way records
   fails loudly while normal drift does not. *)
let alloc_budget_words_per_cycle = 5.0

let test_allocation_budget () =
  let b = Suite.by_name "gsmencode" in
  let program = b.Suite.build ~scale:0.5 () in
  (* Fast-forward off so every cycle takes the per-cycle path being
     measured; no attribution/tracer, matching the perf harness. *)
  let machine =
    { (Config.default ~n_cores:4) with Config.fast_forward = false }
  in
  let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false program in
  let m = Machine.create machine compiled.Driver.executable in
  let before = Gc.minor_words () in
  let result = Machine.run m in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "run finished" true
    (result.Machine.outcome = Machine.Finished);
  let per_cycle = words /. float_of_int result.Machine.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words/cycle within %.0f"
       per_cycle alloc_budget_words_per_cycle)
    true
    (per_cycle <= alloc_budget_words_per_cycle)

(* The same budget for the fast-forward path: a 16-core directory hybrid
   run of one mesh16-dir program, fast-forward on (the default) and
   nothing subscribed. Each run of a group stall is one window, and a
   blocked core's verdict is memoised until its wake, so most blocked
   core-cycles never reach the blocker's scan. Measured ~5.3; a RECV
   verdict built per blocked core-cycle again (~22) fails this. *)
let ff_budget_words_per_cycle = 12.0

let test_ff_allocation_budget () =
  let program = (Suite.by_name "164.gzip").Suite.build ~scale:0.5 () in
  let machine =
    Config.with_coherence Voltron_mem.Coherence.Directory (Config.default ~n_cores:16)
  in
  let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false program in
  let m = Machine.create machine compiled.Driver.executable in
  let before = Gc.minor_words () in
  let result = Machine.run m in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "run finished" true
    (result.Machine.outcome = Machine.Finished);
  let per_cycle = words /. float_of_int result.Machine.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words/cycle within %.0f" per_cycle
       ff_budget_words_per_cycle)
    true
    (per_cycle <= ff_budget_words_per_cycle)

(* Minor-heap words one [Machine.create] may allocate for the default
   8-core configuration. Each cache is three heap blocks (the L2's large
   arrays go straight to the major heap), so what remains is the L1
   tag/age arrays, the register files, the network and TM state and the
   per-core records: measured ~12,600. A cache model that goes back to a
   heap record per way costs ~61,000 and fails this. *)
let create_budget_words = 25_000.0

let test_create_budget () =
  let b = Suite.by_name "gsmencode" in
  let program = b.Suite.build ~scale:0.2 () in
  let machine = Config.default ~n_cores:8 in
  let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false program in
  let exe = compiled.Driver.executable in
  let before = Gc.minor_words () in
  let m = Machine.create machine exe in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity m);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words within %.0f" words create_budget_words)
    true
    (words <= create_budget_words)

(* Minor-heap words per dynamic statement for one profiling run, the
   interpreter's own allocation included. The profiler's facts are int
   arrays indexed by sid and its last-write tables are flat per-depth
   arrays on the major heap, so its hooks add ~0.1 words per statement to
   the interpreter's ~2.1 (mostly the initial-memory list, and a closure
   per statement list executed): measured ~2.2 on this workload. The
   hashtable profiler it replaced (a [Some] per statement count, a fresh
   table per loop entry) measured ~5.1 and fails this. *)
let profile_budget_words_per_stmt = 3.0

let test_profile_budget () =
  let program = (Suite.by_name "gsmencode").Suite.build ~scale:1.0 () in
  let before = Gc.minor_words () in
  let profile = Voltron_analysis.Profile.collect program in
  let words = Gc.minor_words () -. before in
  let per_stmt = words /. float_of_int (Voltron_analysis.Profile.total_dyn profile) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words/statement within %.1f" per_stmt
       profile_budget_words_per_stmt)
    true
    (per_stmt <= profile_budget_words_per_stmt)

let () =
  Alcotest.run "perf"
    [
      ( "fast-forward",
        [
          Alcotest.test_case "differential suite sweep" `Slow test_differential;
          Alcotest.test_case "16-core directory differential" `Slow
            test_differential_mesh16;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "per-cycle budget" `Quick test_allocation_budget;
          Alcotest.test_case "fast-forward budget" `Quick test_ff_allocation_budget;
          Alcotest.test_case "Machine.create budget" `Quick test_create_budget;
          Alcotest.test_case "Profile.collect budget" `Quick test_profile_budget;
        ] );
    ]
