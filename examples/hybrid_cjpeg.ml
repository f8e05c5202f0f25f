(* Hybrid execution on a mixed benchmark (paper §5.2, cjpeg): a program
   whose regions favour different kinds of parallelism. The hybrid
   compiler picks a strategy per region and the machine switches between
   coupled and decoupled mode at region boundaries; the paper's point is
   that this beats any single strategy (cjpeg: 1.3x ILP-only, 1.08x
   TLP-only, 1.21x LLP-only, but 1.79x hybrid on 4 cores).

     dune exec examples/hybrid_cjpeg.exe *)

module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Select = Voltron_compiler.Select

let () =
  let bench = Suite.by_name "cjpeg" in
  let program = bench.Suite.build () in
  (* Interpret the program once; every compile below shares the oracle. *)
  let oracle = Voltron_compiler.Driver.interpret program in
  let base = Voltron.Run.baseline_cycles ~oracle program in
  Printf.printf "cjpeg-like workload, baseline %d cycles\n\n" base;

  let show name choice =
    let m = Voltron.Run.run ~choice ~oracle ~n_cores:4 program in
    Printf.printf "%-12s speedup %.2fx%s\n" name
      (float_of_int base /. float_of_int m.Voltron.Run.cycles)
      (if m.Voltron.Run.verified then "" else "  [VERIFICATION FAILED]");
    m
  in
  let _ = show "ILP only" `Ilp in
  let _ = show "TLP only" `Tlp in
  let _ = show "LLP only" `Llp in
  let hybrid = show "hybrid" `Hybrid in

  print_newline ();
  print_endline "hybrid plan (strategy per region):";
  List.iter
    (fun (r : Select.planned_region) ->
      Printf.printf "  %-16s -> %s\n" r.Select.pr_name
        (Select.strategy_name r.Select.pr_strategy))
    hybrid.Voltron.Run.plan;

  let st = hybrid.Voltron.Run.stats in
  let total = st.Stats.coupled_cycles + st.Stats.decoupled_cycles in
  Printf.printf "\nmode split: %.1f%% coupled / %.1f%% decoupled (%d mode switches)\n"
    (100. *. float_of_int st.Stats.coupled_cycles /. float_of_int total)
    (100. *. float_of_int st.Stats.decoupled_cycles /. float_of_int total)
    st.Stats.mode_switches
