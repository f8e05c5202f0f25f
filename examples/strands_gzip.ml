(* The paper's Fig. 8 worked example: 164.gzip's longest-match loop,

       do { ... } while scan-words = match-words && scan < strend

   Its two independent load streams (scan and match) make it ideal for
   fine-grain strands: eBUG puts each stream on its own core so their
   cache misses overlap, and the loop condition travels the queue-mode
   operand network as a predicate SEND/RECV (Fig. 8(b)/(c)). The paper
   reports 1.2x on 2 cores.

     dune exec examples/strands_gzip.exe *)

module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats

let () =
  let program = Suite.micro_gzip_strands () in
  (* Interpret the program once; every compile below shares the oracle. *)
  let oracle = Voltron_compiler.Driver.interpret program in
  let base = Voltron.Run.baseline_cycles ~oracle program in
  Printf.printf "sequential baseline: %d cycles\n\n" base;
  List.iter
    (fun (name, choice) ->
      let m = Voltron.Run.run ~choice ~oracle ~n_cores:2 program in
      let st = m.Voltron.Run.stats in
      let sum pick = pick (Stats.core st 0) + pick (Stats.core st 1) in
      Printf.printf
        "%-18s %6d cycles  speedup %.2fx  (D-stalls %d, recv-pred %d)%s\n"
        name m.Voltron.Run.cycles
        (float_of_int base /. float_of_int m.Voltron.Run.cycles)
        (sum (fun c -> c.Stats.d_stall))
        (sum (fun c -> c.Stats.recv_pred_stall))
        (if m.Voltron.Run.verified then "" else "  [VERIFICATION FAILED]"))
    [
      ("strands (2 cores)", `Tlp);
      ("coupled ILP", `Ilp);
      ("hybrid", `Hybrid);
    ];
  print_endline "\npaper: 1.2x with strands on 2 cores";
  print_endline
    "note the predicate-receive stalls in the strands build: the loop-exit\n\
     condition is computed on one core and shipped to its peer every\n\
     iteration over the queue network (paper 3.2)"
