(* Integration tests across the whole stack: every benchmark verified
   against the oracle under the hybrid strategy; a representative subset
   under every forced strategy and core count; behavioural invariants
   (coupled mode halves nothing it shouldn't, DOALL actually chunks, TM
   speculation stays correct under forced conflicts); and random
   structured programs compiled with every strategy (qcheck). *)

module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Config = Voltron_machine.Config
module Driver = Voltron_compiler.Driver
module Rng = Voltron_util.Rng

let imm = B.imm

let scale = 0.15

let verified ?profile p choice cores =
  let m = Voltron.Run.run ~choice ?profile ~n_cores:cores p in
  m.Voltron.Run.verified

(* Every benchmark, hybrid, 4 cores. *)
let test_all_benchmarks_hybrid () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let p = b.Suite.build ~scale () in
      Alcotest.(check bool) (b.Suite.bench_name ^ " verified") true
        (verified p `Hybrid 4))
    Suite.all

(* Representative benchmarks across the full strategy/core matrix. *)
let matrix_benches = [ "164.gzip"; "171.swim"; "177.mesa"; "179.art"; "cjpeg" ]

let test_strategy_matrix () =
  List.iter
    (fun name ->
      let b = Suite.by_name name in
      let p = b.Suite.build ~scale () in
      let profile = Voltron_analysis.Profile.collect p in
      List.iter
        (fun choice ->
          List.iter
            (fun cores ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%d cores" name cores)
                true
                (verified ~profile p choice cores))
            [ 1; 2; 4 ])
        [ `Seq; `Ilp; `Tlp; `Llp ])
    matrix_benches

(* A shared oracle is invisible: one [Driver.interpret] passed to every run
   of a program measures exactly what runs that each interpret the program
   themselves measure. *)
let test_shared_oracle () =
  let module Run = Voltron.Run in
  let module Select = Voltron_compiler.Select in
  let module Machine = Voltron_machine.Machine in
  let strategies (m : Run.measurement) =
    List.map
      (fun (pr : Select.planned_region) -> Select.strategy_name pr.Select.pr_strategy)
      m.Run.plan
  in
  List.iter
    (fun (name, p) ->
      let oracle = Driver.interpret p in
      Alcotest.(check int) (name ^ " baseline") (Run.baseline_cycles p)
        (Run.baseline_cycles ~oracle p);
      List.iter
        (fun n_cores ->
          List.iter
            (fun choice ->
              let what =
                Printf.sprintf "%s/%s/%d" name (Select.choice_name choice) n_cores
              in
              let own = Run.run ~choice ~n_cores p in
              let shared = Run.run ~choice ~oracle ~n_cores p in
              Alcotest.(check int) (what ^ " cycles") own.Run.cycles shared.Run.cycles;
              Alcotest.(check string) (what ^ " outcome")
                (Machine.outcome_to_string own.Run.outcome)
                (Machine.outcome_to_string shared.Run.outcome);
              Alcotest.(check bool) (what ^ " verified") own.Run.verified
                shared.Run.verified;
              Alcotest.(check bool) (what ^ " stats") true
                (own.Run.stats = shared.Run.stats);
              Alcotest.(check (list string)) (what ^ " plan") (strategies own)
                (strategies shared))
            Run.default_strategies)
        [ 2; 4 ])
    [
      ("cjpeg", (Suite.by_name "cjpeg").Suite.build ~scale:0.2 ());
      ("micro:gsm_llp", Suite.micro_gsm_llp ~scale:0.2 ());
      ("micro:gzip_strands", Suite.micro_gzip_strands ~scale:0.2 ());
      ("micro:gsm_ilp", Suite.micro_gsm_ilp ~scale:0.2 ());
    ]

(* The micro-examples hold their paper-reported direction. *)
let test_micro_directions () =
  let sp p choice =
    let base = Voltron.Run.baseline_cycles p in
    let m = Voltron.Run.run ~choice ~n_cores:2 p in
    Alcotest.(check bool) "verified" true m.Voltron.Run.verified;
    float_of_int base /. float_of_int m.Voltron.Run.cycles
  in
  (* Fig. 7: DOALL gives a solid speedup. *)
  Alcotest.(check bool) "gsm_llp speeds up" true
    (sp (Suite.micro_gsm_llp ~scale:0.5 ()) `Llp > 1.5);
  (* Fig. 9: coupled ILP wins over decoupled TLP. *)
  let p = Suite.micro_gsm_ilp ~scale:0.5 () in
  Alcotest.(check bool) "gsm_ilp: ILP beats TLP" true (sp p `Ilp > sp p `Tlp)

(* DOALL execution actually uses all cores: per-core busy cycles are
   spread, not concentrated on the master. *)
let test_doall_uses_all_cores () =
  let b = B.create "spread" in
  let src = B.array b ~name:"s" ~size:1024 ~init:(fun i -> i) () in
  let dst = B.array b ~name:"d" ~size:1024 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 1024) (fun i ->
          let v = B.load b src i in
          B.store b dst i (B.mul b v v)));
  let p = B.finish b in
  let m = Voltron.Run.run ~choice:`Llp ~n_cores:4 p in
  Alcotest.(check bool) "verified" true m.Voltron.Run.verified;
  let st = m.Voltron.Run.stats in
  for c = 1 to 3 do
    let worker = (Stats.core st c).Stats.busy in
    let master = (Stats.core st 0).Stats.busy in
    Alcotest.(check bool)
      (Printf.sprintf "core %d does real work" c)
      true
      (float_of_int worker > 0.3 *. float_of_int master)
  done

(* Speculative DOALL with a rare genuine conflict: TM must roll back and
   still produce the oracle's memory image. *)
let test_speculative_conflict_still_correct () =
  let b = B.create "spec" in
  let n = 64 in
  (* idx is almost a permutation, but two iterations collide: iteration 5
     writes the cell iteration 50 reads. *)
  let idx =
    B.array b ~name:"idx" ~size:n
      ~init:(fun i -> if i = 50 then 5 else i)
      ()
  in
  let data = B.array b ~name:"data" ~size:n ~init:(fun i -> i * 3) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.load b idx i in
          let v = B.load b data j in
          B.store b data j (B.add b v (imm 1))));
  let p = B.finish b in
  (* The profiler sees the write/read collision only if it crosses
     iterations through RAW; "data[5] += 1" twice is WAW+RAW at distinct
     iterations... so the loop may be Rejected or Speculative depending on
     classification. Whatever the plan, the run must stay correct. *)
  List.iter
    (fun choice ->
      Alcotest.(check bool) "correct under any strategy" true (verified p choice 4))
    [ `Seq; `Ilp; `Tlp; `Llp; `Hybrid ]

(* Forced TM conflicts: indices that make neighbouring chunks collide. *)
let test_forced_tm_conflict () =
  let b = B.create "conflict" in
  let n = 64 in
  (* Iteration i writes cell (i + 17) mod n, read by iteration
     (i + 17) mod n: chunks overlap heavily. Profiling still observes no
     RAW only if no read follows a write — here reads do follow writes
     across iterations, so classification rejects DOALL; force `Llp falls
     back to Seq and stays correct. *)
  let data = B.array b ~name:"data" ~size:n ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.binop b Voltron_isa.Inst.And (B.add b i (imm 17)) (imm (n - 1)) in
          let v = B.load b data j in
          B.store b data j (B.add b v (imm 10)))) ;
  let p = B.finish b in
  List.iter
    (fun choice -> Alcotest.(check bool) "correct" true (verified p choice 4))
    [ `Llp; `Hybrid ]

(* Coupled-mode lock-step sanity: during an ILP run, all cores' busy
   cycles are close (they issue together or not at all). *)
let test_coupled_lockstep_balance () =
  let b = Suite.by_name "gsmencode" in
  let p = b.Suite.build ~scale () in
  let m = Voltron.Run.run ~choice:`Ilp ~n_cores:4 p in
  Alcotest.(check bool) "verified" true m.Voltron.Run.verified;
  let st = m.Voltron.Run.stats in
  Alcotest.(check bool) "spent time coupled" true (st.Stats.coupled_cycles > 0)

(* Stall taxonomy: decoupled-TLP runs of a missy benchmark show receive
   stalls; coupled-ILP runs show none (no queues in coupled mode). *)
let test_stall_taxonomy () =
  let b = Suite.by_name "179.art" in
  let p = b.Suite.build ~scale () in
  let profile = Voltron_analysis.Profile.collect p in
  let recv_stalls choice =
    let m = Voltron.Run.run ~choice ~profile ~n_cores:4 p in
    let st = m.Voltron.Run.stats in
    List.fold_left
      (fun acc c ->
        let cs = Stats.core st c in
        acc + cs.Stats.recv_data_stall + cs.Stats.recv_pred_stall)
      0
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "decoupled has receive stalls" true (recv_stalls `Tlp > 0);
  Alcotest.(check int) "coupled has no receive stalls" 0 (recv_stalls `Ilp)

(* Random structured programs, compiled with every strategy at 4 cores,
   always match the oracle. Reuses richer shapes than test_ir's generator:
   accumulators, nested loops, multiple regions. *)
let random_program seed =
  let rng = Rng.create seed in
  let b = B.create "rand" in
  let arrays =
    List.init 3 (fun i ->
        B.array b
          ~name:(Printf.sprintf "a%d" i)
          ~size:64
          ~init:(fun j -> (j * (7 + i)) mod 29)
          ())
  in
  let arr () = List.nth arrays (Rng.int rng 3) in
  let n_regions = Rng.in_range rng 1 3 in
  for region = 0 to n_regions - 1 do
    B.region b (Printf.sprintf "r%d" region) (fun () ->
        let pool = ref [ imm 1; imm 5 ] in
        let operand () = List.nth !pool (Rng.int rng (List.length !pool)) in
        let push v = pool := v :: !pool in
        let emit_body i =
          for _ = 1 to Rng.in_range rng 1 4 do
            match Rng.int rng 6 with
            | 0 -> push (B.load b (arr ()) (B.binop b Voltron_isa.Inst.And i (imm 63)))
            | 1 -> push (B.add b (operand ()) (operand ()))
            | 2 -> push (B.mul b (operand ()) i)
            | 3 ->
              B.store b (arr ())
                (B.binop b Voltron_isa.Inst.And (B.add b i (operand ())) (imm 63))
                (operand ())
            | 4 -> push (B.select b (operand ()) (operand ()) (operand ()))
            | _ ->
              let c = B.cmp b Voltron_isa.Inst.Lt (operand ()) (imm 50) in
              B.if_ b c
                (fun () -> B.store b (arr ()) (imm 0) (operand ()))
                (fun () -> push (B.add b (operand ()) (imm 3)))
          done
        in
        let trips = Rng.in_range rng 2 24 in
        (match Rng.int rng 3 with
        | 0 ->
          (* plain loop *)
          B.for_ b ~from:(imm 0) ~limit:(imm trips) emit_body
        | 1 ->
          (* loop with accumulator *)
          let acc = B.fresh b in
          B.assign b acc (Hir.Operand (imm 0));
          B.for_ b ~from:(imm 0) ~limit:(imm trips) (fun i ->
              emit_body i;
              let v = B.load b (arr ()) (B.binop b Voltron_isa.Inst.And i (imm 63)) in
              B.assign b acc (Hir.Alu (Voltron_isa.Inst.Add, Hir.Reg acc, v)));
          B.store b (arr ()) (imm 1) (Hir.Reg acc)
        | _ ->
          (* nested loops *)
          B.for_ b ~from:(imm 0) ~limit:(imm (min trips 6)) (fun i ->
              B.for_ b ~from:(imm 0) ~limit:(imm 4) (fun j ->
                  emit_body (B.add b i j))));
        B.store b (arr ()) (imm 2) (operand ()))
  done;
  B.finish b

let test_random_all_strategies =
  QCheck.Test.make ~name:"random programs verify under every strategy" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun choice ->
          let machine = Config.default ~n_cores:4 in
          let compiled = Driver.compile ~machine ~choice p in
          match Driver.verify machine compiled with Ok _ -> true | Error _ -> false)
        [ `Seq; `Ilp; `Tlp; `Llp; `Hybrid ])

let () =
  Alcotest.run "integration"
    [
      ( "suite",
        [
          Alcotest.test_case "all benchmarks hybrid" `Slow test_all_benchmarks_hybrid;
          Alcotest.test_case "strategy matrix" `Slow test_strategy_matrix;
          Alcotest.test_case "micro directions" `Quick test_micro_directions;
          Alcotest.test_case "shared oracle" `Quick test_shared_oracle;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "doall spreads work" `Quick test_doall_uses_all_cores;
          Alcotest.test_case "speculation correct" `Quick test_speculative_conflict_still_correct;
          Alcotest.test_case "forced conflicts" `Quick test_forced_tm_conflict;
          Alcotest.test_case "lock-step" `Quick test_coupled_lockstep_balance;
          Alcotest.test_case "stall taxonomy" `Quick test_stall_taxonomy;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest test_random_all_strategies ]);
    ]
