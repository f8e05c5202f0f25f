(* The Voltron benchmark.

   One process, one caller, jobs = 1: every workload is a closed loop in
   which the next program starts only after the previous one is verified.
   With [--trace 0] it measures untraced passes and prints the end-to-end
   metrics; with [--trace 1] it alternates untraced and traced passes and
   prints the per-layer metrics the traced passes record. Each layer is
   timed from outside, around calls into its public functions, so the
   program under test is never edited to be measured. The last line of
   stdout is one JSON object: {"correct", "attempted", "failed",
   "metrics"}. See perfbench/README.md for the workloads and metrics. *)

module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Stats = Voltron_machine.Stats
module Coherence = Voltron_mem.Coherence
module Memory = Voltron_mem.Memory
module Network = Voltron_net.Operand_network
module Program = Voltron_isa.Program
module Image = Voltron_isa.Image
module Hir = Voltron_ir.Hir
module Interp = Voltron_ir.Interp
module Profile = Voltron_analysis.Profile
module Check = Voltron_check.Check
module Driver = Voltron_compiler.Driver
module Select = Voltron_compiler.Select
module Codegen = Voltron_compiler.Codegen
module Suite = Voltron_workloads.Suite
module Gen = Voltron_gen.Gen
module Campaign = Voltron_gen.Campaign
module Frontend = Voltron_lang.Frontend
module Rng = Voltron_util.Rng
module Run = Voltron.Run

let now = Unix.gettimeofday
let t_start = now ()

(* --- spans and counts ------------------------------------------------------ *)

(* A span is kept in memory until exit. [parent] is the span that caused it;
   [prog] is the program it belongs to (-1 outside any program). *)
type span = {
  id : int;
  name : string;
  parent : int;
  prog : int;
  start : float;
  mutable stop : float;
}

type tracer = {
  on : bool;
  mutable spans : span list;  (* newest first; ids are 0, 1, ... in start order *)
  mutable next_id : int;
  mutable current : int;
  mutable prog : int;
  counts : (string, float) Hashtbl.t;
}

let tracer on =
  { on; spans = []; next_id = 0; current = -1; prog = -1; counts = Hashtbl.create 64 }

let span ?parent t name f =
  if not t.on then f ()
  else begin
    let s =
      {
        id = t.next_id;
        name;
        parent = Option.value parent ~default:t.current;
        prog = t.prog;
        start = now ();
        stop = nan;
      }
    in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    let outer = t.current in
    t.current <- s.id;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        t.current <- outer)
  end

let get t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.
let count t name v = if t.on then Hashtbl.replace t.counts name (get t name +. v)
let count_max t name v = if t.on then Hashtbl.replace t.counts name (Float.max (get t name) v)

(* Consistency failures (as opposed to failed programs) make the run
   incorrect: the traced and untraced passes, or the stage replay and
   [Driver.compile], disagreed. *)
let inconsistencies = ref []

let inconsistent msg =
  prerr_endline ("perfbench: " ^ msg);
  inconsistencies := msg :: !inconsistencies

(* --- workloads ------------------------------------------------------------- *)

(* One compile of a program, then every simulation of that executable. *)
type case = { choice : Select.choice; machine : Config.t; sims : Config.t list }

type workload = {
  name : string;
  build : tracer -> Hir.program array;  (* the inputs; its spans are set-up layers *)
  cases : case list;
  max_steps : int option;
  campaign : (int * int) option;
      (* fuzz seed and program size: the timed pass is the fuzz gate's
         [Campaign.run], one cell per program *)
}

let suite_inputs ~scale t =
  Array.of_list
    (List.map
       (fun (b : Suite.benchmark) ->
         span t "workloads.build_s" (fun () -> b.Suite.build ~scale ()))
       Suite.all)

(* The same cells [Campaign.run ~seed] generates: cell k's generator seed is
   split from the campaign seed and k alone. *)
let fuzz_inputs ~seed ~size ~count t =
  let rng = Rng.create seed in
  Array.init count (fun k ->
      t.prog <- k;
      let s = Rng.next (Rng.split rng k) in
      let src = span t "gen.gen_s" (fun () -> Gen.render (Gen.program ~size ~seed:s ())) in
      span t "lang.frontend_s" (fun () ->
          Frontend.parse_string ~name:(Printf.sprintf "fuzz_s%d" s) src))

let suite_workload ~name ~scale ~machine =
  {
    name;
    build = suite_inputs ~scale;
    cases = [ { choice = `Hybrid; machine; sims = [ machine ] } ];
    max_steps = None;
    campaign = None;
  }

(* The matrix [Run.differential] runs per program, in its order: for every
   core count and strategy one compile, then per coherence backend one
   simulation with fast-forward on and one with it off. *)
let fuzz_workload ~seed ~size ~count =
  let max_steps = 2_000_000 and max_cycles = 4_000_000 in
  let cases =
    List.concat_map
      (fun n_cores ->
        let c = Config.default ~n_cores in
        let machine = { c with Config.max_cycles = min c.Config.max_cycles max_cycles } in
        List.map
          (fun choice ->
            let sims =
              List.concat_map
                (fun proto ->
                  let c = Config.with_coherence proto machine in
                  [
                    { c with Config.fast_forward = true };
                    { c with Config.fast_forward = false };
                  ])
                Run.default_coherence
            in
            { choice; machine; sims })
          Run.default_strategies)
      Run.default_cores
  in
  {
    name = "fuzz-diff";
    build = fuzz_inputs ~seed ~size ~count;
    cases;
    max_steps = Some max_steps;
    campaign = Some (seed, size);
  }

(* --- one program through compile and simulation ---------------------------- *)

let strategy_key : Codegen.strategy -> string = function
  | Codegen.Seq -> "seq"
  | Codegen.Coupled_ilp -> "ilp"
  | Codegen.Strands -> "strands"
  | Codegen.Dswp -> "dswp"
  | Codegen.Doall { Codegen.dp_speculative = false; _ } -> "doall"
  | Codegen.Doall _ -> "doall_spec"

let strategy_keys = [ "seq"; "ilp"; "strands"; "dswp"; "doall"; "doall_spec" ]

let code_bundles (p : Program.t) =
  Array.fold_left (fun a im -> a + Image.length im) 0 p.Program.images

(* Equal code and data simulate to equal cycles and checksums: the machine
   is deterministic. *)
let same_executable (a : Program.t) (b : Program.t) =
  a.Program.mem_size = b.Program.mem_size
  && a.Program.mem_init = b.Program.mem_init
  && Array.length a.Program.images = Array.length b.Program.images
  && Array.for_all2
       (fun x y ->
         Image.length x = Image.length y
         && List.for_all (fun i -> Image.fetch x i = Image.fetch y i)
              (List.init (Image.length x) Fun.id))
       a.Program.images b.Program.images

(* The stages of [Driver.compile], replayed through their public functions.
   Their spans name the compile span as parent, so the compile's self time
   is the replay gap: the compile's time the stages do not account for. *)
let replay t ~parent wl c hir (compiled : Driver.compiled) =
  let stage name f = span ~parent t name f in
  let max_steps = wl.max_steps in
  let profile = stage "analysis.profile_s" (fun () -> Profile.collect ?max_steps hir) in
  ignore (stage "ir.oracle_s" (fun () -> Interp.run ?max_steps hir));
  let plan =
    stage "compiler.select_s" (fun () -> Select.plan ~machine:c.machine ~profile c.choice hir)
  in
  let cg = Codegen.create c.machine hir in
  List.iter
    (fun (pr : Select.planned_region) ->
      let key = strategy_key pr.Select.pr_strategy in
      count t ("compiler.codegen.regions." ^ key) 1.;
      stage ("compiler.codegen." ^ key ^ "_s") (fun () ->
          Codegen.emit_region cg ~name:pr.Select.pr_name pr.Select.pr_stmts
            pr.Select.pr_strategy))
    plan;
  let exe = stage "compiler.codegen.finalize_s" (fun () -> Codegen.finalize cg) in
  let diags =
    stage "check.check_s" (fun () ->
        Check.check_program ~infos:(Codegen.check_infos cg) c.machine exe)
  in
  count t "check.warnings" (float (List.length diags));
  count t "compiler.code_bundles" (float (code_bundles exe));
  if not (same_executable exe compiled.Driver.executable) then
    inconsistent (Printf.sprintf "program %d: stage replay built another executable" t.prog)

let compile_case t wl c hir =
  let compile_span = ref (-1) in
  let compiled =
    span t "compiler.compile_s" (fun () ->
        compile_span := t.current;
        Driver.compile ~machine:c.machine ~choice:c.choice ?max_steps:wl.max_steps hir)
  in
  if t.on then begin
    let parent = !compile_span in
    match span t "perfbench.replay" (fun () -> replay t ~parent wl c hir compiled) with
    | () -> ()
    | exception e ->
      inconsistent
        (Printf.sprintf "program %d: stage replay raised %s" t.prog (Printexc.to_string e))
  end;
  compiled

let record_machine t m ~minor_words =
  let st = Machine.stats m in
  let add name v = count t name (float v) in
  add "sim.cycles" st.Stats.cycles;
  add "sim.coupled" st.Stats.coupled_cycles;
  add "machine.mode_switches" st.Stats.mode_switches;
  add "machine.spawns" st.Stats.spawns;
  add "tm.rounds" st.Stats.tm_rounds;
  add "tm.conflicts" st.Stats.tm_conflicts;
  Array.iter
    (fun (c : Stats.core) ->
      add "machine.bundles" c.Stats.bundles;
      add "core.busy" c.Stats.busy;
      add "core.idle" c.Stats.idle;
      add "core.all" (c.Stats.busy + c.Stats.idle + Stats.total_stalls c);
      add "core.i" c.Stats.i_stall;
      add "core.d" c.Stats.d_stall;
      add "core.lat" c.Stats.lat_stall;
      add "core.recv_data" c.Stats.recv_data_stall;
      add "core.recv_pred" c.Stats.recv_pred_stall;
      add "core.sync" c.Stats.sync_stall)
    st.Stats.per_core;
  let cs = Coherence.total_stats (Machine.coherence m) in
  add "mem.accesses" cs.Coherence.accesses;
  add "mem.l1d_misses" cs.Coherence.l1d_misses;
  add "mem.l2_misses" cs.Coherence.l2_misses;
  add "mem.c2c_transfers" cs.Coherence.c2c_transfers;
  add "mem.bus_wait_cycles" cs.Coherence.bus_wait_cycles;
  add "mem.dir_lookups" cs.Coherence.dir_lookups;
  add "mem.dir_invalidations" cs.Coherence.dir_invalidations;
  add "mem.dir_indirections" cs.Coherence.dir_indirections;
  let ns = Network.stats (Machine.network m) in
  add "net.msgs" ns.Network.msgs_sent;
  add "net.latency" ns.Network.total_latency;
  count_max t "net.max_occupancy" (float ns.Network.max_occupancy);
  count t "machine.minor_words" minor_words

let simulate t (cfg : Config.t) (compiled : Driver.compiled) =
  let m = span t "machine.create_s" (fun () -> Machine.create cfg compiled.Driver.executable) in
  count t "machine.create.calls" 1.;
  let ff = cfg.Config.fast_forward in
  if t.on && ff then
    Machine.set_on_window m (fun ~from ~upto ->
        if upto > from then begin
          count t "ff.windows" 1.;
          count t "ff.skipped" (float (upto - from))
        end);
  let w0 = if t.on then Gc.minor_words () else 0. in
  let r =
    let name = if ff then "machine.run.ff_on_s" else "machine.run.ff_off_s" in
    span t name (fun () -> Machine.run m)
  in
  if t.on then begin
    record_machine t m ~minor_words:(Gc.minor_words () -. w0);
    if ff then count t "ff.cycles" (float r.Machine.cycles)
  end;
  (r, Memory.checksum_prefix (Machine.memory m) compiled.Driver.array_footprint)

(* What one pass did. [digest] folds every simulation's cycles and
   checksum, so two passes of the same program compare exactly. *)
type tally = {
  ok : bool array;  (* per program: every compile and simulation verified *)
  secs : float array;  (* per program: host seconds *)
  speed : float array;  (* per program: host speed around it (timed passes only) *)
  mutable sims : int;
  mutable cycles : int;
  mutable digest : int;
}

let new_tally n =
  {
    ok = Array.make n false;
    secs = Array.make n 0.;
    speed = Array.make n 1.;
    sims = 0;
    cycles = 0;
    digest = 0;
  }

let failures tl = Array.fold_left (fun a ok -> if ok then a else a + 1) 0 tl.ok

(* Every simulation must finish with the oracle's checksum; fast-forward on
   and off on one backend must agree on cycles. An exception escaping the
   compiler or the machine fails the program and does not stop the pass. *)
let run_program t wl tl pid hir =
  t.prog <- pid;
  let ok = ref true in
  span t "perfbench.program" (fun () ->
      List.iter
        (fun c ->
          match compile_case t wl c hir with
          | exception _ -> ok := false
          | compiled ->
            let seen = ref [] in
            List.iter
              (fun (cfg : Config.t) ->
                match simulate t cfg compiled with
                | exception _ -> ok := false
                | r, sum ->
                  let cycles = r.Machine.cycles in
                  tl.sims <- tl.sims + 1;
                  tl.cycles <- tl.cycles + cycles;
                  tl.digest <- Hashtbl.hash (tl.digest, cycles, sum);
                  (match r.Machine.outcome with
                  | Machine.Finished ->
                    if sum <> compiled.Driver.oracle_checksum then ok := false
                  | Machine.Out_of_cycles | Machine.Deadlock _ | Machine.Fault_limit _
                  | Machine.Stopped _ ->
                    ok := false);
                  let proto = cfg.Config.cache.Coherence.protocol in
                  (match List.assoc_opt proto !seen with
                  | Some c' when c' <> cycles -> ok := false
                  | Some _ -> ()
                  | None -> seen := (proto, cycles) :: !seen))
              c.sims)
        wl.cases);
  tl.ok.(pid) <- !ok;
  t.prog <- -1

(* A fixed piece of OCaml work, independent of the code under test: its
   host time tracks how fast the shared host runs at the moment. It
   allocates, hashes, sorts and chases pointers, like the compiler and the
   simulator do. *)
let calibrate () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 14_999 do
    Hashtbl.replace h (i * 7919 land 65535) (string_of_int i)
  done;
  let l = List.init 10_000 (fun i -> i * 48271 mod 65521) in
  ignore (Sys.opaque_identity (List.sort compare l));
  now () -. t0

(* About its host time on an idle Intel Xeon (2.1 GHz) virtual machine. *)
let calibration_ref_s = 0.005

(* The host's speed relative to that reference, from the calibrations on
   either side of a stretch of work. *)
let speed_of c0 c1 = calibration_ref_s /. ((c0 +. c1) /. 2.)

(* Runs [f] on every program in [order], timing each. A timed pass also
   calibrates between programs. *)
let each_program ~timed order tl f =
  let c = ref (if timed then calibrate () else 0.) in
  Array.iter
    (fun i ->
      let t0 = now () in
      f i;
      tl.secs.(i) <- now () -. t0;
      if timed then begin
        let c' = calibrate () in
        tl.speed.(i) <- speed_of !c c';
        c := c'
      end)
    order

let matrix_pass ~timed t wl order inputs =
  let tl = new_tally (Array.length inputs) in
  span t "perfbench.pass" (fun () ->
      each_program ~timed order tl (fun i -> run_program t wl tl i inputs.(i)));
  tl

(* The fuzz gate's own path: [Campaign.run] on one cell at a time, so a
   crash is caught per program; divergences come from the campaign report. *)
let campaign_pass ~seed ~size order n =
  let tl = new_tally n in
  each_program ~timed:true order tl (fun cell ->
      match
        Campaign.run ~jobs:1 ~minimize_findings:false ~size ~seed ~index:cell ~count:1 ()
      with
      | exception _ -> ()
      | r ->
        tl.sims <- tl.sims + r.Campaign.r_runs;
        tl.ok.(cell) <- r.Campaign.r_findings = []);
  tl

(* --- statistics and output ------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> Some (float kb /. 1024.)
          | exception _ -> scan ())
      in
      let r = scan () in
      close_in ic;
      r
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let json_number x =
  if not (Float.is_finite x) then failwith "perfbench: a metric is not a finite number"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && !inconsistencies = [])
    attempted failed body

(* Self time: a span's duration minus the durations of the spans that name
   it as parent. *)
let self_times spans =
  let n = List.fold_left (fun a s -> max a (s.id + 1)) 0 spans in
  let child = Array.make n 0. in
  List.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start))
    spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. child.(s.id) in
      let total, own = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0.) in
      Hashtbl.replace tbl s.name (total +. (s.stop -. s.start), own +. self))
    spans;
  tbl

(* Rows under the pass spans, sorted by share of pass time. The replay's
   own glue is excluded: it is the traced run's extra work, not a layer. *)
let print_table ~workload ~passes tbl =
  let total name = fst (Option.value (Hashtbl.find_opt tbl name) ~default:(0., 0.)) in
  let pass_s = total "perfbench.pass" -. total "perfbench.replay" in
  let setup = [ "workloads.build_s"; "gen.gen_s"; "lang.frontend_s" ] in
  let rows =
    Hashtbl.fold
      (fun name (_, self) acc ->
        if name = "perfbench.replay" || List.mem name setup then acc else (name, self) :: acc)
      tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Printf.printf
    "per-layer self time, %s: %d traced pass(es), %.3f s per pass without the replay\n" workload
    passes (pass_s /. float passes);
  List.iter
    (fun (name, self) ->
      Printf.printf "  %-32s %10.4f s %6.1f%%\n" name (self /. float passes)
        (100. *. ratio self pass_s))
    rows

let write_spans ~workload spans =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s.tsv" workload) in
  let oc = open_out path in
  output_string oc "id\tparent\tprogram\tname\tstart_s\tstop_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.prog s.name
        (s.start -. t_start) (s.stop -. t_start))
    (List.rev spans);
  close_out oc;
  Printf.printf "spans: %d records in %s\n" (List.length spans) path

let per_layer ~t ~tbl ~passes ~setups ~untraced_s =
  let total name = fst (Option.value (Hashtbl.find_opt tbl name) ~default:(0., 0.)) in
  let pp x = x /. float passes in
  let c name = get t name in
  let ps name = pp (total name) in
  let setup name = total name /. float setups in
  let run_s = total "machine.run.ff_on_s" +. total "machine.run.ff_off_s" in
  let stages =
    [ "analysis.profile_s"; "ir.oracle_s"; "compiler.select_s"; "compiler.codegen.finalize_s";
      "check.check_s" ]
    @ List.map (fun k -> "compiler.codegen." ^ k ^ "_s") strategy_keys
  in
  let share name = ratio (c name) (c "core.all") in
  let traced_s = ps "perfbench.pass" -. ps "perfbench.replay" in
  [
    ("workloads.build_s", "s", setup "workloads.build_s");
    ("gen.gen_s", "s", setup "gen.gen_s");
    ("lang.frontend_s", "s", setup "lang.frontend_s");
    ("analysis.profile_s", "s", ps "analysis.profile_s");
    ("ir.oracle_s", "s", ps "ir.oracle_s");
    ("compiler.compile_s", "s", ps "compiler.compile_s");
    ("compiler.select_s", "s", ps "compiler.select_s");
  ]
  @ List.map (fun k -> let n = "compiler.codegen." ^ k ^ "_s" in (n, "s", ps n)) strategy_keys
  @ [ ("compiler.codegen.finalize_s", "s", ps "compiler.codegen.finalize_s") ]
  @ List.map
      (fun k -> let n = "compiler.codegen.regions." ^ k in (n, "count", pp (c n)))
      strategy_keys
  @ [
      ("compiler.code_bundles", "count", pp (c "compiler.code_bundles"));
      ( "compiler.replay_gap_s", "s",
        pp (total "compiler.compile_s" -. List.fold_left (fun a n -> a +. total n) 0. stages) );
      ("check.check_s", "s", ps "check.check_s");
      ("check.warnings", "count", pp (c "check.warnings"));
      ("machine.create_s", "s", ps "machine.create_s");
      ("machine.create.calls", "count", pp (c "machine.create.calls"));
      ("machine.run.ff_on_s", "s", ps "machine.run.ff_on_s");
      ("machine.run.ff_off_s", "s", ps "machine.run.ff_off_s");
      ("machine.run.cycles_per_s", "cycles/s", ratio (c "sim.cycles") run_s);
      ("machine.run.ns_per_bundle", "ns", 1e9 *. ratio run_s (c "machine.bundles"));
      ( "machine.run.minor_words_per_cycle", "words/cycle",
        ratio (c "machine.minor_words") (c "sim.cycles") );
      ("machine.ff.windows", "count", pp (c "ff.windows"));
      ("machine.ff.skipped_share", "share", ratio (c "ff.skipped") (c "ff.cycles"));
      ("machine.bundles", "count", pp (c "machine.bundles"));
      ("machine.busy_share", "share", share "core.busy");
      ("machine.stall_share.i", "share", share "core.i");
      ("machine.stall_share.d", "share", share "core.d");
      ("machine.stall_share.lat", "share", share "core.lat");
      ("machine.stall_share.recv_data", "share", share "core.recv_data");
      ("machine.stall_share.recv_pred", "share", share "core.recv_pred");
      ("machine.stall_share.sync", "share", share "core.sync");
      ("machine.idle_share", "share", share "core.idle");
      ("machine.coupled_share", "share", ratio (c "sim.coupled") (c "sim.cycles"));
      ("machine.mode_switches", "count", pp (c "machine.mode_switches"));
      ("machine.spawns", "count", pp (c "machine.spawns"));
      ("tm.rounds", "count", pp (c "tm.rounds"));
      ("tm.conflict_share", "share", ratio (c "tm.conflicts") (c "tm.rounds"));
      ("mem.accesses", "count", pp (c "mem.accesses"));
      ("mem.l1d_miss_rate", "share", ratio (c "mem.l1d_misses") (c "mem.accesses"));
      ("mem.l2_misses", "count", pp (c "mem.l2_misses"));
      ("mem.c2c_transfers", "count", pp (c "mem.c2c_transfers"));
      ("mem.bus_wait_cycles", "count", pp (c "mem.bus_wait_cycles"));
      ("mem.dir_lookups", "count", pp (c "mem.dir_lookups"));
      ("mem.dir_invalidations", "count", pp (c "mem.dir_invalidations"));
      ("mem.dir_indirections", "count", pp (c "mem.dir_indirections"));
      ("net.msgs", "count", pp (c "net.msgs"));
      ("net.mean_latency_cycles", "cycles", ratio (c "net.latency") (c "net.msgs"));
      ("net.max_occupancy", "count", c "net.max_occupancy");
      ("trace.untraced_pass_s", "s", untraced_s);
      ("trace.traced_pass_s", "s", traced_s);
      ("trace.overhead_s", "s", traced_s -. untraced_s);
    ]

(* --- main ------------------------------------------------------------------ *)

let default_fuzz_seed = 7

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let fuzz_seed = ref default_fuzz_seed and quick = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " suite-4c | fuzz-diff | mesh16-dir");
      ("--seed", Arg.Set_int seed, " seed of the program order within a pass");
      ("--seconds", Arg.Set_int seconds, " how long the timed passes run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ( "--fuzz-seed",
        Arg.Set_int fuzz_seed,
        Printf.sprintf " fuzz-diff campaign seed (default %d)" default_fuzz_seed );
      ("--quick", Arg.Set quick, " tiny inputs and one timed pass (the self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let quick = !quick and traced = !trace = 1 in
  let scale full = if quick then 0.05 else full in
  let wl =
    match !workload with
    | "suite-4c" ->
      suite_workload ~name:"suite-4c" ~scale:(scale 1.0) ~machine:(Config.default ~n_cores:4)
    | "mesh16-dir" ->
      suite_workload ~name:"mesh16-dir" ~scale:(scale 0.5)
        ~machine:(Config.with_coherence Coherence.Directory (Config.default ~n_cores:16))
    | "fuzz-diff" ->
      fuzz_workload ~seed:!fuzz_seed ~size:(if quick then 8 else 24)
        ~count:(if quick then 2 else 32)
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  let t = tracer traced and off = tracer false in
  (* Set-up, repeated: the reported set-up time is the median build, each
     corrected for the host's speed around it. *)
  let setups = if quick then 1 else 9 in
  let setup_times = ref [] and inputs = ref [||] in
  for _ = 1 to setups do
    let c0 = calibrate () in
    let t0 = now () in
    inputs := wl.build t;
    let dt = now () -. t0 in
    setup_times := (dt *. speed_of c0 (calibrate ())) :: !setup_times
  done;
  Printf.printf "set-up: setup_s %.6f s (median of %d builds)\n" (median !setup_times) setups;
  let inputs = !inputs in
  let n = Array.length inputs in
  let order =
    let a = Array.init n Fun.id and rng = Rng.create !seed in
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let attempted = ref 0 and failed = ref 0 in
  let account tl =
    attempted := !attempted + n;
    failed := !failed + failures tl
  in
  let matrix ?(timed = false) t =
    let tl = matrix_pass ~timed t wl order inputs in
    account tl;
    tl
  in
  let same what a b =
    if a.sims <> b.sims || a.cycles <> b.cycles || a.digest <> b.digest || a.ok <> b.ok then
      inconsistent
        (Printf.sprintf "%s: the passes disagree (%d vs %d simulations, %d vs %d cycles)" what
           a.sims b.sims a.cycles b.cycles)
  in
  (* Warm-up: caches, the heap and lazy set-up settle before timing. This
     outside pass is also the reference every later pass must match. On
     fuzz-diff it is the one that counts cycles: the campaign reports
     none, so a campaign pass must agree with it on every verdict and on
     the number of simulations. *)
  let reference = matrix off in
  let timed_pass () =
    match wl.campaign with
    | None ->
      let tl = matrix ~timed:true off in
      same "untraced" reference tl;
      tl
    | Some (seed, size) ->
      let tl = campaign_pass ~seed ~size order n in
      account tl;
      if tl.ok <> reference.ok || tl.sims <> reference.sims then
        inconsistent
          (Printf.sprintf
             "campaign and matrix disagree (%d vs %d simulations, %d vs %d failures)" tl.sims
             reference.sims (failures tl) (failures reference));
      tl
  in
  let passes_until_deadline f =
    let deadline = now () +. float !seconds in
    let rec go acc =
      let acc = f () :: acc in
      if now () >= deadline || quick then List.rev acc else go acc
    in
    go []
  in
  if not traced then begin
    let runs = passes_until_deadline timed_pass in
    List.iteri
      (fun i tl ->
        let wall = Array.fold_left ( +. ) 0. tl.secs in
        let corrected = Array.fold_left ( +. ) 0. (Array.map2 ( *. ) tl.secs tl.speed) in
        Printf.printf
          "pass %d: %.4f host s (%.4f at reference speed), programs_per_s %.4f 1/s, \
           verified_share %.4f share, sim_cycles %d cycles, peak_rss_mb %.2f MB\n"
          (i + 1) wall corrected (float n /. corrected)
          (1. -. ratio (float (failures tl)) (float n))
          reference.cycles (peak_rss_mb ()))
      runs;
    (* Each program's median over the passes, summed: one slow stretch of
       the host then moves a few programs, not a whole pass. *)
    let pass_s =
      Array.fold_left ( +. ) 0.
        (Array.init n (fun i -> median (List.map (fun tl -> tl.secs.(i) *. tl.speed.(i)) runs)))
    in
    print_result ~attempted:!attempted ~failed:!failed
      [
        ("programs_per_s", "1/s", float n /. pass_s);
        ("setup_s", "s", median !setup_times);
        ("peak_rss_mb", "MB", peak_rss_mb ());
        ("verified_share", "share", 1. -. ratio (float !failed) (float !attempted));
        ("sim_cycles", "cycles", float reference.cycles);
      ]
  end
  else begin
    let untraced = ref 0. in
    let passes =
      List.length
        (passes_until_deadline (fun () ->
             let t0 = now () in
             let u = matrix off in
             untraced := !untraced +. (now () -. t0);
             same "untraced" reference u;
             same "traced" reference (matrix t)))
    in
    let tbl = self_times t.spans in
    print_table ~workload:wl.name ~passes tbl;
    write_spans ~workload:wl.name t.spans;
    print_result ~attempted:!attempted ~failed:!failed
      (per_layer ~t ~tbl ~passes ~setups ~untraced_s:(!untraced /. float passes))
  end
