(* The paper's Fig. 7 worked example: the gsmdecode loop

       for (i = 0; i < 8; ++i) { uf[i] = u[i]; rpf[i] = rp[i] * scalef; }

   is a DOALL loop — no iteration touches another's data — so the Voltron
   compiler splits its iterations into per-core chunks (Fig. 7(b)/(c)).
   The paper reports a 1.9x speedup on 2 cores; this example shows the
   same loop (scaled up), the compiler's classification, and the measured
   speedup on 2 and 4 cores.

     dune exec examples/doall_gsm.exe *)

module Suite = Voltron_workloads.Suite
module Select = Voltron_compiler.Select
module Config = Voltron_machine.Config

let () =
  let program = Suite.micro_gsm_llp () in
  (* One interpretation of the program serves the selector's profile and
     every compile below. *)
  let oracle = Voltron_compiler.Driver.interpret program in
  let profile = oracle.Voltron_compiler.Driver.dyn_profile in

  (* Ask the selector how it classifies the region. *)
  let machine = Config.default ~n_cores:2 in
  List.iter
    (fun (r : Select.planned_region) ->
      Printf.printf "region %-10s -> %s (dynamic weight %d)\n" r.Select.pr_name
        (Select.strategy_name r.Select.pr_strategy)
        r.Select.pr_weight)
    (Select.plan ~machine ~profile `Hybrid program);

  let base = Voltron.Run.baseline_cycles ~oracle program in
  List.iter
    (fun cores ->
      let m = Voltron.Run.run ~choice:`Llp ~oracle ~n_cores:cores program in
      Printf.printf "%d cores: %d cycles, speedup %.2fx (paper: 1.9x on 2 cores)%s\n"
        cores m.Voltron.Run.cycles
        (float_of_int base /. float_of_int m.Voltron.Run.cycles)
        (if m.Voltron.Run.verified then "" else "  [VERIFICATION FAILED]"))
    [ 2; 4 ]
