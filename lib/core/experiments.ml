module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Hir = Voltron_ir.Hir
module Profile = Voltron_analysis.Profile
module Driver = Voltron_compiler.Driver
module Table = Voltron_util.Table
module Stat = Voltron_util.Stat

type per_type_speedup = {
  bench : string;
  sp_ilp : float;
  sp_tlp : float;
  sp_llp : float;
}

type stall_breakdown = {
  sb_bench : string;
  coupled_i : float;
  coupled_d : float;
  coupled_other : float;
  decoupled_i : float;
  decoupled_d : float;
  decoupled_recv : float;
  decoupled_pred : float;
  decoupled_sync : float;
}

type hybrid_speedup = { hs_bench : string; hs_2core : float; hs_4core : float }

type mode_split = { ms_bench : string; coupled_pct : float; decoupled_pct : float }

type classification = {
  cl_bench : string;
  pct_ilp : float;
  pct_tlp : float;
  pct_llp : float;
  pct_single : float;
}

type micro_result = {
  mi_name : string;
  mi_paper : float;
  mi_measured : float;
}

let selected_benches benches =
  match benches with
  | None -> Suite.all
  | Some names -> List.map Suite.by_name names

(* Per-benchmark cells are independent (each builds its own program,
   oracle and machines), so the figure sweeps fan out on the pool;
   results come back in benchmark order whatever [jobs] is. *)
let pmap ~jobs f xs =
  Array.to_list (Voltron_pool.Pool.parallel_map ~jobs f (Array.of_list xs))

(* Measure one program's cycles under a choice/core count, reusing the
   oracle; insist on oracle agreement. *)
let cycles_of ?oracle ?tweak program choice n_cores =
  let m = Run.run ~choice ?oracle ?tweak ~n_cores program in
  if not m.Run.verified then
    failwith "experiment run diverged from the reference interpreter";
  m

(* A program interpreted once: every compile of it in a cell shares
   [oracle], and [base] is its 1-core sequential cycles. *)
type subject = { prog : Hir.program; oracle : Driver.oracle; base : int }

let subject prog =
  let oracle = Driver.interpret prog in
  { prog; oracle; base = Run.baseline_cycles ~oracle prog }

let of_bench ~scale (b : Suite.benchmark) = subject (b.Suite.build ~scale ())

let measure ?tweak s choice n_cores =
  cycles_of ~oracle:s.oracle ?tweak s.prog choice n_cores

let ratio s (m : Run.measurement) = float_of_int s.base /. float_of_int m.Run.cycles
let speedup s choice n_cores = ratio s (measure s choice n_cores)

let per_type ~scale ~benches ~jobs ~n_cores =
  pmap ~jobs
    (fun (b : Suite.benchmark) ->
      let s = of_bench ~scale b in
      let sp choice = speedup s choice n_cores in
      { bench = b.Suite.bench_name; sp_ilp = sp `Ilp; sp_tlp = sp `Tlp; sp_llp = sp `Llp })
    (selected_benches benches)

let fig10 ?(scale = 1.0) ?benches ?(jobs = 1) () =
  per_type ~scale ~benches ~jobs ~n_cores:2

let fig11 ?(scale = 1.0) ?benches ?(jobs = 1) () =
  per_type ~scale ~benches ~jobs ~n_cores:4

let fig12 ?(scale = 1.0) ?benches ?(jobs = 1) () =
  pmap ~jobs
    (fun (b : Suite.benchmark) ->
      let s = of_bench ~scale b in
      let base = float_of_int s.base in
      let fractions choice =
        let m = measure s choice 4 in
        let st = m.Run.stats in
        let avg pick =
          Stat.mean
            (List.init st.Stats.n_cores (fun c ->
                 float_of_int (pick (Stats.core st c)) /. base))
        in
        ( avg (fun c -> c.Stats.i_stall),
          avg (fun c -> c.Stats.d_stall),
          avg (fun c -> c.Stats.recv_data_stall),
          avg (fun c -> c.Stats.recv_pred_stall),
          avg (fun c -> c.Stats.sync_stall),
          avg (fun c -> c.Stats.lat_stall) )
      in
      let ci, cd, _, _, csync, clat = fractions `Ilp in
      let di, dd, drecv, dpred, dsync, _ = fractions `Tlp in
      {
        sb_bench = b.Suite.bench_name;
        coupled_i = ci;
        coupled_d = cd;
        coupled_other = csync +. clat;
        decoupled_i = di;
        decoupled_d = dd;
        decoupled_recv = drecv;
        decoupled_pred = dpred;
        decoupled_sync = dsync;
      })
    (selected_benches benches)

let fig13 ?(scale = 1.0) ?benches ?(jobs = 1) () =
  pmap ~jobs
    (fun (b : Suite.benchmark) ->
      let s = of_bench ~scale b in
      let sp cores = speedup s `Hybrid cores in
      { hs_bench = b.Suite.bench_name; hs_2core = sp 2; hs_4core = sp 4 })
    (selected_benches benches)

let fig14 ?(scale = 1.0) ?benches ?(jobs = 1) () =
  pmap ~jobs
    (fun (b : Suite.benchmark) ->
      let p = b.Suite.build ~scale () in
      let m = cycles_of p `Hybrid 4 in
      let st = m.Run.stats in
      let total = float_of_int (st.Stats.coupled_cycles + st.Stats.decoupled_cycles) in
      let coupled_pct =
        if total = 0. then 0. else 100. *. float_of_int st.Stats.coupled_cycles /. total
      in
      {
        ms_bench = b.Suite.bench_name;
        coupled_pct;
        decoupled_pct = 100. -. coupled_pct;
      })
    (selected_benches benches)

(* Fig. 3: run every region standalone under each forced strategy and
   attribute its dynamic weight to the winner. *)
let fig3 ?(scale = 1.0) ?benches ?(jobs = 1) () =
  pmap ~jobs
    (fun (b : Suite.benchmark) ->
      let p = b.Suite.build ~scale () in
      let profile = (Driver.interpret p).Driver.dyn_profile in
      let weights =
        List.map
          (fun (r : Hir.region) ->
            let w = ref 0 in
            Hir.iter_stmts
              (fun s -> w := !w + Profile.dyn_count profile s.Hir.sid)
              r.Hir.stmts;
            (r, !w))
          p.Hir.regions
      in
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
      let credit = Hashtbl.create 4 in
      let add k w =
        Hashtbl.replace credit k (w + Option.value ~default:0 (Hashtbl.find_opt credit k))
      in
      List.iter
        (fun ((r : Hir.region), w) ->
          let s = subject { p with Hir.regions = [ r ] } in
          let c choice = (measure s choice 4).Run.cycles in
          let candidates =
            [ (`Single, s.base); (`Ilp_k, c `Ilp); (`Tlp_k, c `Tlp); (`Llp_k, c `Llp) ]
          in
          let winner, _ =
            List.fold_left
              (fun (bk, bc) (k, cyc) -> if cyc < bc then (k, cyc) else (bk, bc))
              (`Single, max_int) candidates
          in
          add winner w)
        weights;
      let pct k =
        Stat.percent
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt credit k)))
          (float_of_int total)
      in
      {
        cl_bench = b.Suite.bench_name;
        pct_ilp = pct `Ilp_k;
        pct_tlp = pct `Tlp_k;
        pct_llp = pct `Llp_k;
        pct_single = pct `Single;
      })
    (selected_benches benches)

let micro ?(scale = 1.0) ?(jobs = 1) () =
  let best program =
    let s = subject program in
    let candidates =
      List.map (fun c -> (measure s c 2).Run.cycles) [ `Ilp; `Tlp; `Llp; `Hybrid ]
    in
    float_of_int s.base /. float_of_int (List.fold_left min max_int candidates)
  in
  pmap ~jobs
    (fun (mi_name, mi_paper, build) ->
      { mi_name; mi_paper; mi_measured = best (build ()) })
    [
      ("gsmdecode DOALL (Fig.7)", 1.9, fun () -> Suite.micro_gsm_llp ~scale ());
      ( "164.gzip strands (Fig.8)",
        1.2,
        fun () -> Suite.micro_gzip_strands ~scale () );
      ("gsmdecode ILP (Fig.9)", 1.78, fun () -> Suite.micro_gsm_ilp ~scale ());
    ]

(* --- Coherence scaling: snoop vs directory at 16-64 cores -------------------- *)

type scaling_row = {
  sc_bench : string;
  sc_class : string;
  sc_cores : int;
  sc_snoop_cycles : int;
  sc_dir_cycles : int;
  sc_snoop : float;
  sc_directory : float;
}

type crossover_row = {
  cx_class : string;
  cx_cores : int;
  cx_snoop : float;
  cx_directory : float;
  cx_winner : string;
}

let workload_class (b : Suite.benchmark) =
  let x = b.Suite.bench_mix in
  fst
    (List.fold_left
       (fun (bk, bv) (k, v) -> if v > bv then (k, v) else (bk, bv))
       ("seq", min_int)
       [
         ("ilp", x.Suite.ilp); ("tlp", x.Suite.tlp); ("llp", x.Suite.llp);
         ("seq", x.Suite.seq);
       ])

(* Two benchmarks per dominant-mix class (one for seq), so every class
   contributes a geomean series to the crossover figure without sweeping
   the whole suite at 64 cores. *)
let scaling_benches =
  [ "177.mesa"; "rawcaudio"; "179.art"; "epic"; "171.swim"; "172.mgrid";
    "197.parser" ]

let scaling ?(scale = 1.0) ?(benches = scaling_benches)
    ?(cores = [ 16; 32; 64 ]) ?(jobs = 1) () =
  List.concat
  @@ pmap ~jobs
       (fun (b : Suite.benchmark) ->
         let s = of_bench ~scale b in
         let base = float_of_int s.base in
         let cls = workload_class b in
         List.map
           (fun n ->
             let cyc proto =
               let tweak = Voltron_machine.Config.with_coherence proto in
               (measure ~tweak s `Hybrid n).Run.cycles
             in
             let sn = cyc Voltron_mem.Coherence.Snoop in
             let dr = cyc Voltron_mem.Coherence.Directory in
             {
               sc_bench = b.Suite.bench_name;
               sc_class = cls;
               sc_cores = n;
               sc_snoop_cycles = sn;
               sc_dir_cycles = dr;
               sc_snoop = base /. float_of_int sn;
               sc_directory = base /. float_of_int dr;
             })
           cores)
       (List.map Suite.by_name benches)

let crossover rows =
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.sc_class, r.sc_cores)) rows)
  in
  List.map
    (fun (cls, n) ->
      let sel pick =
        List.filter_map
          (fun r ->
            if r.sc_class = cls && r.sc_cores = n then Some (pick r) else None)
          rows
      in
      let sn = Stat.geomean (sel (fun r -> r.sc_snoop)) in
      let dr = Stat.geomean (sel (fun r -> r.sc_directory)) in
      {
        cx_class = cls;
        cx_cores = n;
        cx_snoop = sn;
        cx_directory = dr;
        cx_winner =
          (if dr > sn *. 1.01 then "directory"
           else if sn > dr *. 1.01 then "snoop"
           else "tie");
      })
    keys

(* --- Resilience (AVF-style fault sweep) -------------------------------------- *)

type resilience_row = {
  rs_bench : string;
  rs_rate : float;
  rs_level : string;
  rs_cycles : int;
  rs_overhead : float;
  rs_speedup : float;
  rs_faults : int;
  rs_retries : int;
  rs_ecc : int;
  rs_aborts : int;
  rs_verified : bool;
}

let resilience ?(scale = 1.0) ?(benches = [ "cjpeg"; "gsmdecode"; "179.art" ])
    ?(rates = [ 0.0; 1e-4; 1e-3; 5e-3 ]) ?(seed = 42) ?(jobs = 1) () =
  List.concat
  @@ pmap ~jobs
       (fun name ->
      let s = of_bench ~scale (Suite.by_name name) in
      let run_at rate =
        let tweak c =
          {
            c with
            Voltron_machine.Config.fault =
              Voltron_fault.Fault.uniform ~seed ~rate ();
          }
        in
        Run.run_resilient ~tweak ~n_cores:4 s.prog
      in
      let clean = run_at 0.0 in
      let clean_cycles = clean.Run.final.Run.cycles in
      List.map
        (fun rate ->
          let r = if rate = 0.0 then clean else run_at rate in
          let m = r.Run.final in
          let st = m.Run.stats in
          let level =
            match List.rev r.Run.attempts with
            | a :: _ -> Voltron_fault.Fault.level_name a.Run.a_level
            | [] -> assert false
          in
          {
            rs_bench = name;
            rs_rate = rate;
            rs_level = level;
            rs_cycles = m.Run.cycles;
            rs_overhead = float_of_int m.Run.cycles /. float_of_int clean_cycles;
            rs_speedup = ratio s m;
            rs_faults = st.Stats.faults_injected;
            rs_retries = st.Stats.net_retries;
            rs_ecc =
              st.Stats.ecc_corrected + st.Stats.ecc_scrubbed
              + st.Stats.flips_masked;
            rs_aborts = st.Stats.spurious_aborts;
            rs_verified = m.Run.verified;
          })
        rates)
    benches

(* --- Ablations --------------------------------------------------------------- *)

type ablation_row = { ab_label : string; ab_values : (string * float) list }

let ablation_modes ?(scale = 1.0) () =
  List.map
    (fun name ->
      let s = of_bench ~scale (Suite.by_name name) in
      let sp choice = speedup s choice 4 in
      let singles = [ sp `Ilp; sp `Tlp; sp `Llp ] in
      {
        ab_label = name;
        ab_values =
          [
            ("hybrid", sp `Hybrid);
            ("best-single", List.fold_left max 0. singles);
            ("worst-single", List.fold_left min infinity singles);
          ];
      })
    [ "164.gzip"; "171.swim"; "177.mesa"; "179.art"; "cjpeg"; "gsmdecode" ]

let ablation_capacity ?(scale = 1.0) () =
  let s = of_bench ~scale (Suite.by_name "epic") in
  List.map
    (fun capacity ->
      let tweak c = { c with Voltron_machine.Config.net_capacity = capacity } in
      {
        ab_label = Printf.sprintf "capacity %d" capacity;
        ab_values = [ ("TLP speedup", ratio s (measure ~tweak s `Tlp 4)) ];
      })
    [ 1; 2; 4; 32 ]

let ablation_memlat ?(scale = 1.0) () =
  let p = (Suite.by_name "179.art").Suite.build ~scale () in
  let oracle = Driver.interpret p in
  List.map
    (fun lat ->
      let tweak c =
        {
          c with
          Voltron_machine.Config.cache =
            { c.Voltron_machine.Config.cache with Voltron_mem.Coherence.lat_mem = lat };
        }
      in
      let base =
        (Run.run ~choice:`Seq ~oracle ~tweak ~n_cores:1 p).Run.cycles |> float_of_int
      in
      let sp choice =
        base /. float_of_int (cycles_of ~oracle ~tweak p choice 4).Run.cycles
      in
      {
        ab_label = Printf.sprintf "mem latency %d" lat;
        ab_values = [ ("coupled ILP", sp `Ilp); ("decoupled TLP", sp `Tlp) ];
      })
    [ 50; 100; 200 ]

let ablation_tm ?(scale = 1.0) () =
  let n = max 64 (int_of_float (1024. *. scale)) in
  let build conflicts =
    let b = Voltron_ir.Builder.create "tm_ablate" in
    Voltron_workloads.Kernels.doall_rmw b ~name:"rmw" ~n ~conflicts ~seed:9;
    Voltron_ir.Builder.finish b
  in
  (* Profile the conflict-free twin: speculation believes the loop is
     clean, exactly like profiling on a friendlier input. *)
  let clean_profile = Profile.collect (build 0) in
  List.map
    (fun conflicts ->
      let s = subject (build conflicts) in
      let m =
        Run.run ~choice:`Llp ~profile:clean_profile ~oracle:s.oracle ~n_cores:4
          s.prog
      in
      if not m.Run.verified then failwith "tm ablation diverged";
      {
        ab_label = Printf.sprintf "%d colliding iterations" conflicts;
        ab_values =
          [
            ("speedup", ratio s m);
            ("tm rounds", float_of_int m.Run.stats.Stats.tm_rounds);
            ("conflicts", float_of_int m.Run.stats.Stats.tm_conflicts);
          ];
      })
    [ 0; 4; 16; 64 ]

let ablation_scaling ?(scale = 1.0) () =
  List.map
    (fun name ->
      let s = of_bench ~scale (Suite.by_name name) in
      let sp cores = speedup s `Hybrid cores in
      {
        ab_label = name;
        ab_values = [ ("2 cores", sp 2); ("4 cores", sp 4); ("8 cores", sp 8) ];
      })
    [ "171.swim"; "179.art"; "177.mesa"; "cjpeg" ]

let ablation_energy ?(scale = 1.0) () =
  List.map
    (fun name ->
      let p = (Suite.by_name name).Suite.build ~scale () in
      let oracle = Driver.interpret p in
      let serial = Run.run ~choice:`Seq ~oracle ~n_cores:1 p in
      let base_cycles = float_of_int serial.Run.cycles in
      let base_energy = serial.Run.energy.Voltron_machine.Energy.e_total in
      let base_edp = serial.Run.energy.Voltron_machine.Energy.edp in
      let m = cycles_of ~oracle p `Hybrid 4 in
      {
        ab_label = name;
        ab_values =
          [
            ("speedup", base_cycles /. float_of_int m.Run.cycles);
            ("energy ratio", m.Run.energy.Voltron_machine.Energy.e_total /. base_energy);
            ("EDP ratio", m.Run.energy.Voltron_machine.Energy.edp /. base_edp);
          ];
      })
    [ "171.swim"; "179.art"; "cjpeg"; "gsmdecode"; "rawcaudio" ]

let ablation_issue_width ?(scale = 1.0) () =
  List.map
    (fun name ->
      let s = of_bench ~scale (Suite.by_name name) in
      let wide width =
        (* One monolithic [width]-issue core running the serial code: the
           paper's "more powerful core" alternative (1). *)
        let tweak c = { c with Voltron_machine.Config.issue_width = width } in
        ratio s (measure ~tweak s `Seq 1)
      in
      let voltron = speedup s `Hybrid 4 in
      {
        ab_label = name;
        ab_values =
          [
            ("1 core, 2-issue", wide 2);
            ("1 core, 4-issue", wide 4);
            ("Voltron 4x1-issue", voltron);
          ];
      })
    [ "171.swim"; "179.art"; "177.mesa"; "gsmdecode"; "rawcaudio" ]

(* A strand loop with a small data-dependent conditional: unconverted, the
   decoupled build ships the branch predicate to every core each
   iteration; if-converted (SELECT), the branch disappears. *)
let ablation_ifconv ?(scale = 1.0) () =
  let build () =
    let b = Voltron_ir.Builder.create "ifconv" in
    let module B = Voltron_ir.Builder in
    let module Inst = Voltron_isa.Inst in
    let n = max 64 (int_of_float (1600. *. scale)) in
    let size = 8192 in
    let arrays =
      List.init 3 (fun s ->
          B.array b
            ~name:(Printf.sprintf "s%d" s)
            ~size
            ~init:(fun i -> (i * (s + 3)) mod 251)
            ())
    in
    B.region b "strand" (fun () ->
        let positions = List.map (fun _ -> B.fresh b) arrays in
        let chk = B.fresh b in
        List.iteri
          (fun k pos -> B.assign b pos (Hir.Operand (B.imm (k * 577))))
          positions;
        B.assign b chk (Hir.Operand (B.imm 0));
        B.for_ b ~from:(B.imm 0) ~limit:(B.imm n) (fun _i ->
            let vals =
              List.map2
                (fun arr pos ->
                  let v = B.load b arr (Hir.Reg pos) in
                  let next =
                    B.binop b Inst.And
                      (B.add b (Hir.Reg pos) (B.imm 1031))
                      (B.imm (size - 1))
                  in
                  B.assign b pos (Hir.Operand next);
                  B.mul b v (B.imm 3))
                arrays positions
            in
            let merged = List.fold_left (fun a v -> B.add b a v) (B.imm 0) vals in
            let bonus = B.fresh b in
            let c = B.cmp b Inst.Gt merged (B.imm 2048) in
            B.if_ b c
              (fun () -> B.assign b bonus (Hir.Alu (Inst.Shr, merged, B.imm 2)))
              (fun () -> B.assign b bonus (Hir.Alu (Inst.Add, merged, B.imm 17)));
            B.assign b chk
              (Hir.Operand (B.binop b Inst.Xor (Hir.Reg chk) (Hir.Reg bonus))));
        B.store b (List.hd arrays) (B.imm 0) (Hir.Reg chk));
    Voltron_ir.Builder.finish b
  in
  let tlp p =
    let s = subject p in
    let m = measure s `Tlp 4 in
    let pred =
      Stat.mean
        (List.init 4 (fun c ->
             float_of_int (Stats.core m.Run.stats c).Stats.recv_pred_stall))
    in
    (ratio s m, pred)
  in
  let sp_branchy, pred_branchy = tlp (build ()) in
  let sp_conv, pred_conv = tlp (Voltron_compiler.Opt.program (build ())) in
  [
    {
      ab_label = "with branch";
      ab_values =
        [ ("TLP speedup", sp_branchy); ("pred-stall cycles/core", pred_branchy) ];
    };
    {
      ab_label = "if-converted";
      ab_values = [ ("TLP speedup", sp_conv); ("pred-stall cycles/core", pred_conv) ];
    };
  ]

let print_ablations ~title rows =
  print_endline title;
  match rows with
  | [] -> ()
  | first :: _ ->
    Table.print
      ~header:("" :: List.map fst first.ab_values)
      (List.map
         (fun r ->
           r.ab_label :: List.map (fun (_, v) -> Table.cell_f v) r.ab_values)
         rows)

(* --- Printing --------------------------------------------------------------- *)

let f = Table.cell_f
let pct = Table.cell_pct

let print_per_type ~title rows =
  print_endline title;
  let body =
    List.map (fun r -> [ r.bench; f r.sp_ilp; f r.sp_tlp; f r.sp_llp ]) rows
  in
  let avg pick = Stat.mean (List.map pick rows) in
  Table.print
    ~header:[ "benchmark"; "ILP"; "fine-grain TLP"; "LLP" ]
    (body
    @ [
        [ "average"; f (avg (fun r -> r.sp_ilp)); f (avg (fun r -> r.sp_tlp));
          f (avg (fun r -> r.sp_llp)) ];
      ])

let print_fig10 rows =
  print_per_type ~title:"Figure 10: speedup on 2-core Voltron, each parallelism type alone"
    rows

let print_fig11 rows =
  print_per_type ~title:"Figure 11: speedup on 4-core Voltron, each parallelism type alone"
    rows

let print_fig3 rows =
  print_endline
    "Figure 3: breakdown of exploitable parallelism, 4-core (percent of dynamic execution)";
  let body =
    List.map
      (fun r ->
        [ r.cl_bench; pct r.pct_ilp; pct r.pct_tlp; pct r.pct_llp; pct r.pct_single ])
      rows
  in
  let avg pick = Stat.mean (List.map pick rows) in
  Table.print
    ~header:[ "benchmark"; "ILP"; "fine-grain TLP"; "LLP"; "single core" ]
    (body
    @ [
        [ "average"; pct (avg (fun r -> r.pct_ilp)); pct (avg (fun r -> r.pct_tlp));
          pct (avg (fun r -> r.pct_llp)); pct (avg (fun r -> r.pct_single)) ];
      ])

let print_fig12 rows =
  print_endline
    "Figure 12: stall cycles / serial cycles, 4-core (left: coupled ILP; right: decoupled TLP)";
  Table.print
    ~header:
      [ "benchmark"; "cI"; "cD"; "cOther"; "dI"; "dD"; "dRecv"; "dPred"; "dSync" ]
    (List.map
       (fun r ->
         [
           r.sb_bench; f r.coupled_i; f r.coupled_d; f r.coupled_other;
           f r.decoupled_i; f r.decoupled_d; f r.decoupled_recv;
           f r.decoupled_pred; f r.decoupled_sync;
         ])
       rows)

let print_fig13 rows =
  print_endline "Figure 13: hybrid-parallelism speedup";
  let avg pick = Stat.mean (List.map pick rows) in
  Table.print
    ~header:[ "benchmark"; "2-core"; "4-core" ]
    (List.map (fun r -> [ r.hs_bench; f r.hs_2core; f r.hs_4core ]) rows
    @ [
        [ "average"; f (avg (fun r -> r.hs_2core)); f (avg (fun r -> r.hs_4core)) ];
      ])

let print_fig14 rows =
  print_endline "Figure 14: time in each execution mode (4-core hybrid)";
  Table.print
    ~header:[ "benchmark"; "coupled"; "decoupled" ]
    (List.map (fun r -> [ r.ms_bench; pct r.coupled_pct; pct r.decoupled_pct ]) rows)

let print_micro rows =
  print_endline "Figs. 7-9 worked micro-examples (2-core speedup)";
  Table.print
    ~header:[ "example"; "paper"; "measured" ]
    (List.map (fun r -> [ r.mi_name; f r.mi_paper; f r.mi_measured ]) rows)

let print_scaling rows =
  print_endline
    "Coherence scaling: hybrid speedup, snoop vs directory (speedup over \
     1-core sequential)";
  Table.print
    ~header:[ "benchmark"; "class"; "cores"; "snoop"; "directory"; "dir/snoop" ]
    (List.map
       (fun r ->
         [
           r.sc_bench;
           r.sc_class;
           string_of_int r.sc_cores;
           f r.sc_snoop;
           f r.sc_directory;
           f (float_of_int r.sc_snoop_cycles /. float_of_int r.sc_dir_cycles);
         ])
       rows)

let print_crossover rows =
  print_endline
    "Crossover per workload class (geomean speedup; directory wins where \
     home-bank serialization beats the shared bus)";
  Table.print
    ~header:[ "class"; "cores"; "snoop"; "directory"; "winner" ]
    (List.map
       (fun r ->
         [
           r.cx_class;
           string_of_int r.cx_cores;
           f r.cx_snoop;
           f r.cx_directory;
           r.cx_winner;
         ])
       rows)

let print_resilience rows =
  print_endline
    "Resilience: seeded fault-rate sweep, 4-core hybrid (overhead over the \
     fault-free run)";
  Table.print
    ~header:
      [
        "benchmark"; "rate"; "level"; "speedup"; "overhead"; "faults";
        "retries"; "ecc"; "tm-aborts"; "verified";
      ]
    (List.map
       (fun r ->
         [
           r.rs_bench;
           Printf.sprintf "%g" r.rs_rate;
           r.rs_level;
           f r.rs_speedup;
           f r.rs_overhead;
           string_of_int r.rs_faults;
           string_of_int r.rs_retries;
           string_of_int r.rs_ecc;
           string_of_int r.rs_aborts;
           (if r.rs_verified then "yes" else "NO");
         ])
       rows)
