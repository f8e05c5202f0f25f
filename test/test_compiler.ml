(* End-to-end compiler tests: build small HIR programs, compile them under
   every strategy and core count, simulate, and check the final memory
   image matches the reference interpreter (the oracle). *)

module B = Voltron_ir.Builder
module Inst = Voltron_isa.Inst
module Config = Voltron_machine.Config
module Driver = Voltron_compiler.Driver

let imm = B.imm

(* p1: straight-line arithmetic with stores. *)
let prog_straight () =
  let b = B.create "straight" in
  let out = B.array b ~name:"out" ~size:64 () in
  B.region b "main" (fun () ->
      let x = B.add b (imm 3) (imm 4) in
      let y = B.mul b x (imm 5) in
      let z = B.sub b y (imm 1) in
      let w = B.binop b Inst.Xor y z in
      B.store b out (imm 0) y;
      B.store b out (imm 1) z;
      B.store b out (imm 2) w;
      let q = B.binop b Inst.Div z (imm 3) in
      B.store b out (imm 3) q);
  B.finish b

(* p2: counted loop with an accumulator and an output array (DOALL with
   accumulator expansion). *)
let prog_loop_sum () =
  let b = B.create "loop_sum" in
  let src = B.array b ~name:"src" ~size:256 ~init:(fun i -> (i * 7) mod 23) () in
  let dst = B.array b ~name:"dst" ~size:256 () in
  let out = B.array b ~name:"out" ~size:8 () in
  B.region b "main" (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Voltron_ir.Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm 256) (fun i ->
          let v = B.load b src i in
          let v2 = B.mul b v v in
          B.store b dst i v2;
          B.assign b acc (Voltron_ir.Hir.Alu (Inst.Add, Voltron_ir.Hir.Reg acc, v2)));
      B.store b out (imm 0) (Voltron_ir.Hir.Reg acc));
  B.finish b

(* p3: loop with control flow inside the body. *)
let prog_branchy () =
  let b = B.create "branchy" in
  let src = B.array b ~name:"src" ~size:128 ~init:(fun i -> i * 13 mod 31) () in
  let dst = B.array b ~name:"dst" ~size:128 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b src i in
          let c = B.cmp b Inst.Gt v (imm 15) in
          B.if_ b c
            (fun () ->
              let big = B.mul b v (imm 3) in
              B.store b dst i big)
            (fun () ->
              let small = B.add b v (imm 100) in
              B.store b dst i small)));
  B.finish b

(* p4: do-while pointer-chase style loop (not DOALL). *)
let prog_dowhile () =
  let b = B.create "dowhile" in
  let data = B.array b ~name:"data" ~size:64 ~init:(fun i -> if i = 40 then 0 else (i + 3) mod 64) () in
  let out = B.array b ~name:"out" ~size:4 () in
  B.region b "main" (fun () ->
      let p = B.fresh b in
      let count = B.fresh b in
      B.assign b p (Voltron_ir.Hir.Operand (imm 0));
      B.assign b count (Voltron_ir.Hir.Operand (imm 0));
      B.do_while b (fun () ->
          let next = B.load b data (Voltron_ir.Hir.Reg p) in
          B.assign b p (Voltron_ir.Hir.Operand next);
          B.assign b count
            (Voltron_ir.Hir.Alu (Inst.Add, Voltron_ir.Hir.Reg count, imm 1));
          B.cmp b Inst.Ne next (imm 0));
      B.store b out (imm 0) (Voltron_ir.Hir.Reg p);
      B.store b out (imm 1) (Voltron_ir.Hir.Reg count));
  B.finish b

(* p5: two independent load streams combined — the strands/gzip shape. *)
let prog_streams () =
  let b = B.create "streams" in
  let s1 = B.array b ~name:"s1" ~size:512 ~init:(fun i -> i * 3) () in
  let s2 = B.array b ~name:"s2" ~size:512 ~init:(fun i -> i * 5) () in
  let dst = B.array b ~name:"dst" ~size:512 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 512) (fun i ->
          let a = B.load b s1 i in
          let c = B.load b s2 i in
          let x = B.mul b a (imm 7) in
          let y = B.mul b c (imm 9) in
          let z = B.add b x y in
          B.store b dst i z));
  B.finish b

(* p6: multiple regions with memory handoff between them. *)
let prog_multi_region () =
  let b = B.create "multi" in
  let a1 = B.array b ~name:"a1" ~size:128 ~init:(fun i -> i) () in
  let a2 = B.array b ~name:"a2" ~size:128 () in
  let out = B.array b ~name:"out" ~size:8 () in
  B.region b "phase1" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b a1 i in
          B.store b a2 i (B.mul b v v)));
  B.region b "phase2" (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Voltron_ir.Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b a2 i in
          B.assign b acc (Voltron_ir.Hir.Alu (Inst.Add, Voltron_ir.Hir.Reg acc, v)));
      B.store b out (imm 0) (Voltron_ir.Hir.Reg acc));
  B.finish b

(* p7: loop with a genuine cross-iteration memory recurrence (must never
   be chunked as DOALL). *)
let prog_recurrence () =
  let b = B.create "recurrence" in
  let a = B.array b ~name:"a" ~size:128 ~init:(fun i -> if i = 0 then 1 else 0) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 1) ~limit:(imm 128) (fun i ->
          let prev = B.load b a (B.sub b i (imm 1)) in
          let v = B.add b (B.mul b prev (imm 3) ) (imm 1) in
          let v = B.binop b Inst.And v (imm 0xffff) in
          B.store b a i v));
  B.finish b

let programs =
  [
    ("straight", prog_straight);
    ("loop_sum", prog_loop_sum);
    ("branchy", prog_branchy);
    ("dowhile", prog_dowhile);
    ("streams", prog_streams);
    ("multi_region", prog_multi_region);
    ("recurrence", prog_recurrence);
  ]

let choices : (string * Voltron_compiler.Select.choice) list =
  [ ("seq", `Seq); ("ilp", `Ilp); ("tlp", `Tlp); ("llp", `Llp); ("hybrid", `Hybrid) ]

let check_one prog_f choice n_cores () =
  let p = prog_f () in
  let machine = Config.default ~n_cores in
  let compiled = Driver.compile ~machine ~choice p in
  match Driver.verify machine compiled with
  | Ok cycles -> Alcotest.(check bool) "ran" true (cycles > 0)
  | Error msg -> Alcotest.fail msg

let matrix_tests =
  List.concat_map
    (fun (pname, pf) ->
      List.concat_map
        (fun (cname, choice) ->
          List.map
            (fun cores ->
              Alcotest.test_case
                (Printf.sprintf "%s/%s/%dc" pname cname cores)
                `Quick
                (check_one pf choice cores))
            [ 1; 2; 4 ])
        choices)
    programs

(* Speedup sanity: parallelisable programs should not slow down much, and
   DOALL-friendly ones should speed up on 4 cores. *)
let cycles_of p choice n_cores =
  let machine = Config.default ~n_cores in
  let compiled = Driver.compile ~machine ~choice p in
  match Driver.verify machine compiled with
  | Ok cycles -> cycles
  | Error msg -> Alcotest.fail msg

let test_llp_speedup () =
  let base = cycles_of (prog_streams ()) `Seq 1 in
  let par = cycles_of (prog_streams ()) `Llp 4 in
  let speedup = float_of_int base /. float_of_int par in
  if speedup < 1.5 then
    Alcotest.fail (Printf.sprintf "LLP speedup too low: %.2f" speedup)

let test_recurrence_not_doall () =
  let p = prog_recurrence () in
  let machine = Config.default ~n_cores:4 in
  let profile = Voltron_analysis.Profile.collect p in
  let plan = Voltron_compiler.Select.plan ~machine ~profile `Llp p in
  List.iter
    (fun (pr : Voltron_compiler.Select.planned_region) ->
      match pr.Voltron_compiler.Select.pr_strategy with
      | Voltron_compiler.Codegen.Doall _ ->
        Alcotest.fail "recurrence loop must not be classified DOALL"
      | _ -> ())
    plan

(* --- Selection heuristics ------------------------------------------------------- *)

module Select = Voltron_compiler.Select

let plan_of p choice =
  let machine = Config.default ~n_cores:4 in
  let profile = Voltron_analysis.Profile.collect p in
  Select.plan ~machine ~profile choice p

let strategy_names p choice =
  List.map
    (fun (r : Select.planned_region) -> Select.strategy_name r.Select.pr_strategy)
    (plan_of p choice)

let test_select_tiny_region_stays_serial () =
  let b = B.create "tiny" in
  let out = B.array b ~name:"out" ~size:4 () in
  B.region b "glue" (fun () -> B.store b out (imm 0) (B.add b (imm 1) (imm 2)));
  let p = B.finish b in
  Alcotest.(check (list string)) "tiny region serial" [ "seq" ]
    (strategy_names p `Hybrid)

let test_select_small_trip_not_doall () =
  (* A 4-iteration DOALL loop is below the trip threshold (2 x cores). *)
  let b = B.create "smalltrip" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 4) (fun i ->
          (* enough body weight to clear the tiny-region bar *)
          let v = B.load b a i in
          let rec grind acc k =
            if k = 0 then acc else grind (B.mul b acc (imm 3)) (k - 1)
          in
          B.store b a i (grind v 8)));
  let p = B.finish b in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("not doall: " ^ name) true
        (name = "seq" || name = "ilp" || name = "strands" || name = "dswp"))
    (strategy_names p `Hybrid)

let test_select_forced_llp_degrades_to_seq () =
  (* Under forced LLP, non-DOALL regions run serial. *)
  let p = prog_dowhile () in
  List.iter
    (fun name -> Alcotest.(check string) "seq fallback" "seq" name)
    (strategy_names p `Llp)

let test_select_miss_fraction_drives_strands () =
  let profile_of p = Voltron_analysis.Profile.collect p in
  (* Missy region: big array, strided; resident region: small array. *)
  let missy =
    let b = B.create "missy" in
    let a = B.array b ~name:"a" ~size:8192 ~init:(fun i -> i) () in
    B.region b "m" (fun () ->
        let x = B.fresh b in
        B.assign b x (Voltron_ir.Hir.Operand (imm 0));
        B.for_ b ~from:(imm 0) ~limit:(imm 512) (fun i ->
            let j = B.binop b Inst.And (B.mul b i (imm 8)) (imm 8191) in
            let v = B.load b a j in
            B.assign b x (Voltron_ir.Hir.Operand (B.binop b Inst.Xor (Voltron_ir.Hir.Reg x) v)));
        B.store b a (imm 0) (Voltron_ir.Hir.Reg x));
    B.finish b
  in
  let region = List.hd missy.Voltron_ir.Hir.regions in
  let frac =
    Select.miss_fraction ~profile:(profile_of missy) region.Voltron_ir.Hir.stmts
  in
  Alcotest.(check bool) (Printf.sprintf "missy fraction %.2f high" frac) true
    (frac > 0.15)

(* --- Scheduler invariants ------------------------------------------------------ *)

(* In coupled mode every block must occupy the same number of bundles on
   every core (lock-step), with the BR in the final bundle of each. *)
let test_coupled_blocks_aligned () =
  let p = prog_streams () in
  let machine = Config.default ~n_cores:4 in
  let lay = Voltron_ir.Layout.compute p in
  let lctx = Voltron_ir.Lower.make_ctx ~layout:lay ~first_vreg:p.Voltron_ir.Hir.n_vregs in
  let region = List.hd p.Voltron_ir.Hir.regions in
  let cfg = Voltron_ir.Lower.region lctx region.Voltron_ir.Hir.stmts in
  let memdep =
    Voltron_analysis.Memdep.create ~region_stmts:region.Voltron_ir.Hir.stmts cfg
  in
  let dg = Voltron_analysis.Depgraph.build ~cfg ~memdep ~latency:Config.latency in
  let partition = Voltron_compiler.Partition.bug ~n_cores:4 ~comm_latency:1 ~dg ~cfg in
  let sched =
    Voltron_compiler.Sched.schedule_region ~machine ~cfg ~dg ~partition
      ~mode:Voltron_isa.Inst.Coupled
  in
  let participants = sched.Voltron_compiler.Sched.participants in
  Alcotest.(check int) "all cores participate" 4 (List.length participants);
  Array.iteri
    (fun bi _ ->
      let lengths =
        List.map
          (fun core ->
            List.length sched.Voltron_compiler.Sched.block_code.(core).(bi))
          participants
      in
      match lengths with
      | first :: rest ->
        List.iter
          (fun l ->
            Alcotest.(check int) (Printf.sprintf "block %d aligned" bi) first l)
          rest
      | [] -> Alcotest.fail "no participants")
    cfg.Voltron_ir.Cfg.blocks;
  (* Bundles respect the configured widths. *)
  List.iter
    (fun core ->
      Array.iter
        (fun bundles ->
          List.iter
            (fun b ->
              Alcotest.(check bool) "legal bundle" true
                (Voltron_isa.Bundle.legal ~issue_width:1 ~comm_width:1 b))
            bundles)
        sched.Voltron_compiler.Sched.block_code.(core))
    participants

let test_wide_issue_schedules_pack () =
  (* With issue width 4, the sequential schedule of a wide expression tree
     is much shorter than with width 1. *)
  let p = prog_straight () in
  let cycles width =
    let machine =
      { (Config.default ~n_cores:1) with Config.issue_width = width }
    in
    let compiled = Driver.compile ~machine ~choice:`Seq p in
    match Driver.verify machine compiled with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let narrow = cycles 1 and wide = cycles 4 in
  Alcotest.(check bool)
    (Printf.sprintf "wide (%d) beats narrow (%d)" wide narrow)
    true (wide < narrow)

(* --- Optimisation passes ------------------------------------------------------ *)

module Opt = Voltron_compiler.Opt
module Hir = Voltron_ir.Hir

let checksum p = (Voltron_ir.Interp.run p).Voltron_ir.Interp.checksum

let count_node pred p =
  let n = ref 0 in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts (fun s -> if pred s.Hir.node then incr n) r.Hir.stmts)
    p.Hir.regions;
  !n

let is_if = function Hir.If _ -> true | _ -> false

let prog_with_branches () =
  let b = B.create "branches" in
  let src = B.array b ~name:"src" ~size:128 ~init:(fun i -> (i * 13) mod 31) () in
  let dst = B.array b ~name:"dst" ~size:128 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b src i in
          let c = B.cmp b Inst.Gt v (imm 15) in
          let t = B.fresh b in
          B.if_ b c
            (fun () -> B.assign b t (Hir.Alu (Inst.Mul, v, imm 3)))
            (fun () -> B.assign b t (Hir.Alu (Inst.Add, v, imm 100)));
          B.store b dst i (Hir.Reg t)));
  B.finish b

let test_if_conversion_removes_branches () =
  let p = prog_with_branches () in
  let q = Opt.program p in
  Alcotest.(check bool) "had an if" true (count_node is_if p > 0);
  Alcotest.(check int) "ifs converted" 0 (count_node is_if q);
  Alcotest.(check int) "same semantics" (checksum p) (checksum q)

let test_if_conversion_skips_impure () =
  (* Branches containing stores must not be converted. *)
  let p = prog_branchy () in
  let q = Opt.program p in
  Alcotest.(check bool) "store-bearing if kept" true (count_node is_if q > 0);
  Alcotest.(check int) "same semantics" (checksum p) (checksum q)

let test_unroll_semantics_and_shape () =
  let p = prog_loop_sum () in
  let q = Opt.program ~options:{ Opt.none with Opt.unroll = 4 } p in
  Alcotest.(check int) "same semantics" (checksum p) (checksum q);
  (* The unrolled loop carries 4 body copies: more statements. *)
  let count p = count_node (fun _ -> true) p in
  Alcotest.(check bool) "bigger body" true (count q > count p);
  (* Non-dividing factors leave the loop alone. *)
  let r = Opt.program ~options:{ Opt.none with Opt.unroll = 7 } p in
  Alcotest.(check int) "7 does not divide 256... wait it doesn't" (count p) (count r)

let test_dce_removes_dead () =
  let b = B.create "dead" in
  let out = B.array b ~name:"out" ~size:4 () in
  B.region b "main" (fun () ->
      let live = B.add b (imm 1) (imm 2) in
      let _dead = B.mul b (imm 3) (imm 4) in
      let _dead2 = B.add b _dead (imm 1) in
      B.store b out (imm 0) live);
  let p = B.finish b in
  let q = Opt.program ~options:{ Opt.none with Opt.dce = true } p in
  let assigns p = count_node (function Hir.Assign _ -> true | _ -> false) p in
  Alcotest.(check int) "dead chain removed" (assigns p - 2) (assigns q);
  Alcotest.(check int) "same semantics" (checksum p) (checksum q)

let test_opt_preserves_random_programs =
  QCheck.Test.make ~name:"optimisation preserves the oracle" ~count:40
    QCheck.(pair (int_bound 100000) (int_bound 2))
    (fun (seed, unroll_sel) ->
      let p =
        (* Reuse the strategy-matrix programs plus random seeds via the
           branchy generator family. *)
        match seed mod 4 with
        | 0 -> prog_branchy ()
        | 1 -> prog_loop_sum ()
        | 2 -> prog_with_branches ()
        | _ -> prog_streams ()
      in
      let options =
        { Opt.if_convert = true; if_limit = 4; unroll = 1 + unroll_sel; dce = true }
      in
      let q = Opt.program ~options p in
      checksum p = checksum q)

let test_optimized_compiles_verified () =
  let p = Opt.program ~options:{ Opt.default with Opt.unroll = 2 } (prog_with_branches ()) in
  List.iter
    (fun choice ->
      let machine = Config.default ~n_cores:4 in
      let compiled = Driver.compile ~machine ~choice p in
      match Driver.verify machine compiled with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ `Seq; `Ilp; `Tlp; `Llp; `Hybrid ]

(* --- Static estimator vs measured attribution ---------------------------------- *)

module Estimate = Voltron_compiler.Estimate
module Codegen = Voltron_compiler.Codegen
module Machine = Voltron_machine.Machine
module Region_profile = Voltron_obs.Region_profile
module Suite = Voltron_workloads.Suite

(* Compile hybrid, run with region attribution attached, and return the
   plan, the static estimate table and measured per-region wall cycles. *)
let run_attributed ~machine ?choice p =
  let compiled = Driver.compile ~machine ?choice ~check:false p in
  let est = Estimate.create ~machine p in
  let table = Estimate.table est compiled.Driver.plan in
  let m = Machine.create machine compiled.Driver.executable in
  let rp = Region_profile.attach m compiled in
  let result = Machine.run m in
  Alcotest.(check bool) "finished" true (result.Machine.outcome = Machine.Finished);
  (compiled.Driver.plan, table, Region_profile.rows rp)

let measured_wall ~n_cores rows name =
  List.fold_left
    (fun acc (r : Region_profile.row) ->
      if r.Region_profile.r_region = name then
        acc +. float_of_int r.Region_profile.r_cycles
      else acc)
    0. rows
  /. float_of_int n_cores

(* The per-region static estimate must track the measured per-region
   cycles on fixed workloads: every non-glue region within 4x either way,
   geomean error under the sweep's 30% acceptance bar plus slack for the
   small per-benchmark sample. *)
let test_estimator_tracks_attribution () =
  let machine = Config.default ~n_cores:4 in
  List.iter
    (fun bname ->
      (* Full scale: the estimator's overhead constants are calibrated on
         the full-size sweep; tiny scales shift trip-bound outliers. *)
      let p = (Suite.by_name bname).Suite.build ~scale:1.0 () in
      let _plan, table, rows = run_attributed ~machine p in
      let lnsum = ref 0. in
      let n = ref 0 in
      List.iter
        (fun (row : Estimate.row) ->
          let meas = measured_wall ~n_cores:4 rows row.Estimate.e_region in
          (* Same noise floor as `voltron_sim analyze --all`: glue regions
             of a few cycles carry no signal. *)
          if meas > 64. then begin
            let ratio = row.Estimate.e_cycles /. meas in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s (%s) ratio %.2f within 4x" bname
                 row.Estimate.e_region row.Estimate.e_strategy ratio)
              true
              (ratio > 0.25 && ratio < 4.0);
            lnsum := !lnsum +. abs_float (log ratio);
            incr n
          end)
        table;
      Alcotest.(check bool) (bname ^ " has measurable regions") true (!n >= 3);
      let geo = exp (!lnsum /. float_of_int !n) -. 1. in
      (* The ±30% acceptance bar applies to the full-suite sweep (checked
         by `analyze --all` in CI); a two-benchmark sample is noisier, so
         gate at 2x on average here. *)
      Alcotest.(check bool) (Printf.sprintf "%s geomean %.1f%% under 100%%" bname (geo *. 100.))
        true (geo < 1.0))
    [ "164.gzip"; "gsmdecode" ]

(* The DSWP pipeline estimate against what the simulator attributes to the
   stage cores: the balanced-stage estimate is a speedup in [1, n_cores]
   and an upper bound on the occupancy the queues actually sustain
   (attribution shows stages blocked on operand-queue round-trips most of
   the time). *)
let test_dswp_estimate_vs_occupancy () =
  let machine = Config.default ~n_cores:4 in
  let checked = ref 0 in
  List.iter
    (fun bname ->
      let p = (Suite.by_name bname).Suite.build ~scale:0.2 () in
      let plan, _table, rows = run_attributed ~machine ~choice:`Tlp p in
      List.iter
        (fun (pr : Select.planned_region) ->
          match pr.Select.pr_strategy with
          | Codegen.Dswp ->
            let est = Select.dswp_estimate ~machine pr.Select.pr_stmts in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s estimate %.2f in [1, 4]" bname pr.Select.pr_name est)
              true
              (est >= 1.0 && est <= 4.0);
            let wall = measured_wall ~n_cores:4 rows pr.Select.pr_name in
            let busy =
              List.fold_left
                (fun acc (r : Region_profile.row) ->
                  if r.Region_profile.r_region = pr.Select.pr_name then
                    acc +. float_of_int r.Region_profile.r_busy
                  else acc)
                0. rows
            in
            if wall > 64. then begin
              let occupancy = busy /. wall in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s occupancy %.2f positive, bounded" bname
                   pr.Select.pr_name occupancy)
                true
                (occupancy > 0.0 && occupancy <= 4.0);
              (* Occupancy counts every busy issue slot, including
                 replicated glue the estimate's balanced-stage model does
                 not credit as speedup — allow it to run slightly ahead. *)
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s estimate %.2f tracks occupancy %.2f" bname
                   pr.Select.pr_name est occupancy)
                true
                (est >= occupancy *. 0.75);
              incr checked
            end
          | _ -> ())
        plan)
    [ "epic"; "183.equake" ];
  Alcotest.(check bool) "saw dswp regions" true (!checked >= 2)

(* --- Proven vs speculative DOALL on the window kernel --------------------------- *)

(* The masked double-buffer kernel: the sharpened oracle proves the halves
   disjoint, so the plan carries a non-speculative DOALL. Re-emitting the
   same plan with dp_speculative forced on (what affine evidence alone
   would produce) must still verify — and cost measurably more cycles for
   the TM bookkeeping. *)
let test_window_proven_beats_speculative () =
  let machine = Config.default ~n_cores:4 in
  let b = B.create "window" in
  Voltron_workloads.Kernels.doall_window b ~name:"win" ~n:1024 ~work:4 ~seed:7;
  let p = B.finish b in
  let compiled = Driver.compile ~machine ~check:false p in
  let is_proven_doall (pr : Select.planned_region) =
    match pr.Select.pr_strategy with
    | Codegen.Doall dp -> not dp.Codegen.dp_speculative
    | _ -> false
  in
  Alcotest.(check bool) "plan carries a proven doall" true
    (List.exists is_proven_doall compiled.Driver.plan);
  let spec_plan =
    List.map
      (fun (pr : Select.planned_region) ->
        match pr.Select.pr_strategy with
        | Codegen.Doall dp ->
          {
            pr with
            Select.pr_strategy = Codegen.Doall { dp with Codegen.dp_speculative = true };
          }
        | _ -> pr)
      compiled.Driver.plan
  in
  let cg = Codegen.create machine p in
  List.iter
    (fun (pr : Select.planned_region) ->
      Codegen.emit_region cg ~name:pr.Select.pr_name pr.Select.pr_stmts
        pr.Select.pr_strategy)
    spec_plan;
  let spec_exe = Codegen.finalize cg in
  let proven_cycles =
    match Driver.verify machine compiled with
    | Ok c -> c
    | Error e -> Alcotest.fail ("proven build: " ^ e)
  in
  let spec_cycles =
    match Driver.verify machine { compiled with Driver.executable = spec_exe } with
    | Ok c -> c
    | Error e -> Alcotest.fail ("speculative build: " ^ e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "proven %d < speculative %d" proven_cycles spec_cycles)
    true
    (proven_cycles < spec_cycles)

(* --- one interpretation per compile ------------------------------------- *)

module Profile = Voltron_analysis.Profile
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program

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

(* The public stages run separately, as before the compile fused its
   interpreter runs: selection from [profile], then codegen left to
   profile the program itself for eBUG. *)
let staged_executable ~machine ~profile choice p =
  let plan = Select.plan ~machine ~profile choice p in
  let cg = Codegen.create machine p in
  List.iter
    (fun (pr : Select.planned_region) ->
      Codegen.emit_region cg ~name:pr.Select.pr_name pr.Select.pr_stmts
        pr.Select.pr_strategy)
    plan;
  Codegen.finalize cg

let check_same what fused staged =
  if not (same_executable fused staged) then
    Alcotest.failf "%s: Driver.compile built another executable" what

let test_compile_matches_stages () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let name = b.Suite.bench_name and p = b.Suite.build ~scale:0.2 () in
      let profile = Profile.collect p in
      let oracle = Voltron_ir.Interp.run p in
      let footprint = Voltron_ir.Layout.mem_size oracle.Voltron_ir.Interp.layout in
      let checksum =
        Voltron_mem.Memory.checksum_prefix oracle.Voltron_ir.Interp.memory footprint
      in
      List.iter
        (fun n_cores ->
          let machine = Config.default ~n_cores in
          List.iter
            (fun (cname, choice) ->
              let what = Printf.sprintf "%s/%s/%d" name cname n_cores in
              let c = Driver.compile ~machine ~choice ~check:false p in
              check_same what c.Driver.executable
                (staged_executable ~machine ~profile choice p);
              Alcotest.(check int) (what ^ " footprint") footprint c.Driver.array_footprint;
              Alcotest.(check int) (what ^ " checksum") checksum c.Driver.oracle_checksum)
            choices)
        [ 2; 4; 8 ])
    Suite.all

(* A caller's [?profile] changes selection only, whether it is the static
   profile ([--no-profile]) or a foreign one: eBUG still reads the compiled
   program's own dynamic profile. The foreign profile is the same
   benchmark's at another scale — same sids, other counts — as the TM
   ablation passes a conflict-free twin's profile. *)
let test_compile_profile_paths () =
  let builds =
    List.map (fun (b : Suite.benchmark) -> (b.Suite.bench_name, b.Suite.build)) Suite.all
    @ [
        ("micro:gsm_llp", Suite.micro_gsm_llp);
        ("micro:gzip_strands", Suite.micro_gzip_strands);
        ("micro:gsm_ilp", Suite.micro_gsm_ilp);
      ]
  in
  List.iter
    (fun (name, build) ->
      let p = build ?scale:(Some 0.2) () in
      let foreign = Profile.collect (build ?scale:(Some 0.1) ()) in
      List.iter
        (fun n_cores ->
          let machine = Config.default ~n_cores in
          let static = Profile.of_static ~cache:machine.Config.cache p in
          List.iter
            (fun (cname, choice) ->
              let what = Printf.sprintf "%s/%s/%d" name cname n_cores in
              check_same (what ^ " static")
                (Driver.compile ~machine ~choice ~check:false ~profile:static p)
                  .Driver.executable
                (staged_executable ~machine ~profile:static choice p);
              check_same (what ^ " foreign")
                (Driver.compile ~machine ~choice ~check:false ~profile:foreign p)
                  .Driver.executable
                (staged_executable ~machine ~profile:foreign choice p))
            [ ("tlp", `Tlp); ("hybrid", `Hybrid) ])
        [ 2; 4 ])
    builds

let () =
  Alcotest.run "compiler"
    [
      ("matrix", matrix_tests);
      ( "properties",
        [
          Alcotest.test_case "llp speedup" `Quick test_llp_speedup;
          Alcotest.test_case "recurrence rejected" `Quick test_recurrence_not_doall;
        ] );
      ( "select",
        [
          Alcotest.test_case "tiny stays serial" `Quick test_select_tiny_region_stays_serial;
          Alcotest.test_case "small trip not doall" `Quick test_select_small_trip_not_doall;
          Alcotest.test_case "llp fallback seq" `Quick test_select_forced_llp_degrades_to_seq;
          Alcotest.test_case "miss fraction" `Quick test_select_miss_fraction_drives_strands;
        ] );
      ( "sched",
        [
          Alcotest.test_case "coupled lock-step alignment" `Quick
            test_coupled_blocks_aligned;
          Alcotest.test_case "wide issue packs" `Quick test_wide_issue_schedules_pack;
        ] );
      ( "opt",
        [
          Alcotest.test_case "if-conversion" `Quick test_if_conversion_removes_branches;
          Alcotest.test_case "impure ifs kept" `Quick test_if_conversion_skips_impure;
          Alcotest.test_case "unrolling" `Quick test_unroll_semantics_and_shape;
          Alcotest.test_case "dce" `Quick test_dce_removes_dead;
          Alcotest.test_case "optimized verifies" `Quick test_optimized_compiles_verified;
          QCheck_alcotest.to_alcotest test_opt_preserves_random_programs;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compile = separate stages" `Slow test_compile_matches_stages;
          Alcotest.test_case "static and foreign profiles" `Quick
            test_compile_profile_paths;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "tracks attribution" `Slow test_estimator_tracks_attribution;
          Alcotest.test_case "dswp estimate vs occupancy" `Slow
            test_dswp_estimate_vs_occupancy;
          Alcotest.test_case "window proven beats speculative" `Quick
            test_window_proven_beats_speculative;
        ] );
    ]
