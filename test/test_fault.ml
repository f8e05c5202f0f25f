(* Tests for the fault-injection and recovery subsystem: the injector's
   configuration and backoff schedule, the ECC memory model, end-to-end
   recovery of every fault kind through the full compile-and-simulate
   pipeline (the answer must still verify against the reference
   interpreter), deterministic replay from a fixed seed, and the graceful
   degradation ladder. *)

module Fault = Voltron_fault.Fault
module Ecc = Voltron_fault.Ecc
module Memory = Voltron_mem.Memory
module Stats = Voltron_machine.Stats
module Config = Voltron_machine.Config
module Run = Voltron.Run
module Suite = Voltron_workloads.Suite
module Net = Voltron_net.Operand_network

let scale = 0.1

let build name = (Suite.by_name name).Suite.build ~scale ()

let with_fault fault cfg = { cfg with Config.fault }

(* --- Configuration and backoff ------------------------------------------- *)

let test_config_helpers () =
  Alcotest.(check bool) "disabled is disabled" false (Fault.enabled Fault.disabled);
  let u = Fault.uniform ~seed:3 ~rate:0.01 () in
  Alcotest.(check bool) "uniform is enabled" true (Fault.enabled u);
  Alcotest.(check (float 0.)) "drop rate set" 0.01 u.Fault.drop_rate;
  Alcotest.(check (float 0.)) "stall rate set" 0.01 u.Fault.stall_rate;
  Alcotest.(check int) "seed carried" 3 u.Fault.fault_seed;
  Alcotest.(check bool) "zero uniform stays disabled" false
    (Fault.enabled (Fault.uniform ~rate:0.0 ()))

let test_backoff_schedule () =
  let cfg = { Fault.disabled with Fault.retry_timeout = 16; backoff_cap = 64 } in
  Alcotest.(check int) "attempt 1" 16 (Fault.backoff_of cfg ~attempt:1);
  Alcotest.(check int) "attempt 2 doubles" 32 (Fault.backoff_of cfg ~attempt:2);
  Alcotest.(check int) "attempt 3 doubles again" 64 (Fault.backoff_of cfg ~attempt:3);
  Alcotest.(check int) "capped at timeout * cap" (16 * 64)
    (Fault.backoff_of cfg ~attempt:40);
  Alcotest.(check bool) "attempt must be 1-based" true
    (try
       ignore (Fault.backoff_of cfg ~attempt:0);
       false
     with Invalid_argument _ -> true)

let test_degradation_rungs () =
  Alcotest.(check bool) "full -> decoupled-only" true
    (Fault.degrade Fault.Full = Some Fault.Decoupled_only);
  Alcotest.(check bool) "decoupled-only -> serial" true
    (Fault.degrade Fault.Decoupled_only = Some Fault.Serial_core0);
  Alcotest.(check bool) "serial is the floor" true
    (Fault.degrade Fault.Serial_core0 = None);
  Alcotest.(check string) "floor name" "serial-core0"
    (Fault.level_name Fault.Serial_core0)

(* --- ECC model ------------------------------------------------------------ *)

let test_ecc_memory () =
  let mem = Memory.create 16 in
  Memory.write mem 3 10;
  Memory.write mem 5 20;
  Memory.write mem 7 30;
  let e = Ecc.create () in
  Memory.attach_ecc mem e;
  (* A read of a flipped word is corrected on demand. *)
  Memory.corrupt mem 3 ~flip:(fun v -> v lxor 1);
  Alcotest.(check int) "read corrected" 10 (Memory.read mem 3);
  Alcotest.(check int) "correction counted" 1 (Ecc.corrected e);
  (* An overwrite of a flipped word masks the fault (AVF unACE). *)
  Memory.corrupt mem 5 ~flip:(fun v -> v lxor 4);
  Memory.write mem 5 9;
  Alcotest.(check int) "masked value wins" 9 (Memory.read mem 5);
  Alcotest.(check int) "mask counted" 1 (Ecc.masked e);
  (* A flip never read is repaired by the end-of-run scrub. *)
  Memory.corrupt mem 7 ~flip:(fun v -> v lxor 8);
  Memory.scrub mem;
  Alcotest.(check int) "scrub restored" 30 (Memory.read mem 7);
  Alcotest.(check int) "scrub counted" 1 (Ecc.scrubbed e);
  Alcotest.(check int) "nothing pending" 0 (Ecc.pending e)

(* --- End-to-end recovery -------------------------------------------------- *)

let test_network_faults_recovered () =
  (* Dropped and corrupted queue-mode messages: the retry protocol must
     deliver every value, so the run still verifies. *)
  let fault =
    { Fault.disabled with Fault.fault_seed = 7; drop_rate = 0.05; corrupt_rate = 0.05 }
  in
  let m = Run.run ~tweak:(with_fault fault) ~n_cores:4 (build "cjpeg") in
  Alcotest.(check bool) "verified under message faults" true m.Run.verified;
  let st = m.Run.stats in
  Alcotest.(check bool) "faults actually injected" true (st.Stats.faults_injected > 0);
  Alcotest.(check bool) "retry protocol fired" true (st.Stats.net_retries > 0)

let test_memory_faults_recovered () =
  (* Bit flips in data memory: ECC corrects, masks or scrubs every one. *)
  let fault = { Fault.disabled with Fault.fault_seed = 11; flip_rate = 5e-3 } in
  let m = Run.run ~tweak:(with_fault fault) ~n_cores:4 (build "cjpeg") in
  Alcotest.(check bool) "verified under bit flips" true m.Run.verified;
  let st = m.Run.stats in
  let handled =
    st.Stats.ecc_corrected + st.Stats.ecc_scrubbed + st.Stats.flips_masked
  in
  Alcotest.(check bool) "flips injected" true (st.Stats.faults_injected > 0);
  Alcotest.(check int) "every flip accounted for" st.Stats.faults_injected handled

let test_spurious_aborts_recovered () =
  (* Spuriously aborted TM rounds reuse the rollback + serial re-execution
     path, so speculation stays correct. *)
  let fault = { Fault.disabled with Fault.fault_seed = 5; tm_abort_rate = 1.0 } in
  let m = Run.run ~choice:`Llp ~tweak:(with_fault fault) ~n_cores:4 (build "183.equake") in
  Alcotest.(check bool) "verified under spurious aborts" true m.Run.verified;
  Alcotest.(check bool) "aborts injected" true (m.Run.stats.Stats.spurious_aborts > 0)

let test_stall_faults_recovered () =
  (* Transient per-core stalls only cost time, never correctness. *)
  let fault =
    { Fault.disabled with Fault.fault_seed = 13; stall_rate = 1e-3; stall_cycles = 12 }
  in
  let m = Run.run ~tweak:(with_fault fault) ~n_cores:4 (build "gsmdecode") in
  Alcotest.(check bool) "verified under stall faults" true m.Run.verified;
  Alcotest.(check bool) "stalls injected" true (m.Run.stats.Stats.stall_faults > 0)

let test_deterministic_replay () =
  (* A faulty run is a deterministic function of (program, config, seed):
     identical cycles and identical fault history on replay. *)
  let fault = Fault.uniform ~seed:42 ~rate:1e-3 () in
  let go () = Run.run ~tweak:(with_fault fault) ~n_cores:4 (build "cjpeg") in
  let a = go () and b = go () in
  Alcotest.(check bool) "first verified" true a.Run.verified;
  Alcotest.(check int) "same cycles" a.Run.cycles b.Run.cycles;
  Alcotest.(check int) "same fault count" a.Run.stats.Stats.faults_injected
    b.Run.stats.Stats.faults_injected;
  Alcotest.(check int) "same retries" a.Run.stats.Stats.net_retries
    b.Run.stats.Stats.net_retries

let test_disabled_is_identical () =
  (* The injector must be pay-for-use: a run with the (default) disabled
     config is cycle-identical to one with no fault machinery tweak at
     all. *)
  let plain = Run.run ~n_cores:4 (build "gsmdecode") in
  let faulted = Run.run ~tweak:(with_fault Fault.disabled) ~n_cores:4 (build "gsmdecode") in
  Alcotest.(check int) "identical cycles" plain.Run.cycles faulted.Run.cycles;
  Alcotest.(check int) "no faults" 0 faulted.Run.stats.Stats.faults_injected

let test_pinned_fault_runs () =
  (* Two 16-core runs pinned to the counters the retry protocol has always
     given them (= `run --bench B --cores 16 --fault-rate 5e-3 --fault-seed
     3 --scale 0.2`). The retransmission order decides which message each
     drop/corrupt roll lands on, so a change to it moves these numbers. *)
  List.iter
    (fun (name, cycles, retries, nacks) ->
      let fault = Fault.uniform ~seed:3 ~rate:5e-3 () in
      let p = (Suite.by_name name).Suite.build ~scale:0.2 () in
      let m = (Run.run_resilient ~tweak:(with_fault fault) ~n_cores:16 p).Run.final in
      let ns = m.Run.net_stats in
      Alcotest.(check bool) (name ^ " verified") true m.Run.verified;
      Alcotest.(check int) (name ^ " cycles") cycles m.Run.cycles;
      Alcotest.(check int) (name ^ " retries") retries ns.Net.retries;
      Alcotest.(check int) (name ^ " nacks") nacks ns.Net.nacks)
    [ ("cjpeg", 38673, 32, 19); ("mpeg2dec", 41708, 41, 21) ]

(* --- Graceful degradation ------------------------------------------------- *)

let test_degradation_ladder () =
  (* A fault threshold low enough to trip forces the runner down the
     ladder; the bottom rung clears the threshold, so the final attempt
     completes and still verifies. *)
  let fault = Fault.uniform ~seed:9 ~degrade_threshold:5 ~rate:0.05 () in
  let r = Run.run_resilient ~tweak:(with_fault fault) ~n_cores:4 (build "cjpeg") in
  Alcotest.(check bool) "degraded at least once" true r.Run.degraded;
  Alcotest.(check bool) "multiple attempts recorded" true
    (List.length r.Run.attempts >= 2);
  (match r.Run.attempts with
  | first :: _ ->
    Alcotest.(check bool) "ladder starts at full" true (first.Run.a_level = Fault.Full)
  | [] -> Alcotest.fail "no attempts recorded");
  let last = List.nth r.Run.attempts (List.length r.Run.attempts - 1) in
  Alcotest.(check bool) "final rung is safer than full" true
    (last.Run.a_level <> Fault.Full);
  Alcotest.(check bool) "final attempt verified" true r.Run.final.Run.verified

let test_no_degradation_below_threshold () =
  (* With a sky-high threshold the first rung absorbs every fault. *)
  let fault = Fault.uniform ~seed:9 ~degrade_threshold:1_000_000 ~rate:1e-3 () in
  let r = Run.run_resilient ~tweak:(with_fault fault) ~n_cores:4 (build "cjpeg") in
  Alcotest.(check bool) "no degradation" false r.Run.degraded;
  Alcotest.(check int) "single attempt" 1 (List.length r.Run.attempts);
  Alcotest.(check bool) "verified" true r.Run.final.Run.verified

let () =
  Alcotest.run "fault"
    [
      ( "config",
        [
          Alcotest.test_case "helpers" `Quick test_config_helpers;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "degradation rungs" `Quick test_degradation_rungs;
        ] );
      ("ecc", [ Alcotest.test_case "correct/mask/scrub" `Quick test_ecc_memory ]);
      ( "recovery",
        [
          Alcotest.test_case "network faults" `Quick test_network_faults_recovered;
          Alcotest.test_case "memory faults" `Quick test_memory_faults_recovered;
          Alcotest.test_case "spurious TM aborts" `Quick test_spurious_aborts_recovered;
          Alcotest.test_case "stall faults" `Quick test_stall_faults_recovered;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "disabled is free" `Quick test_disabled_is_identical;
          Alcotest.test_case "pinned 16-core fault runs" `Quick test_pinned_fault_runs;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "ladder walks down" `Quick test_degradation_ladder;
          Alcotest.test_case "threshold respected" `Quick
            test_no_degradation_below_threshold;
        ] );
    ]
