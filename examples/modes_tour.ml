(* A tour of the architecture's mechanisms on a hand-assembled program —
   no compiler involved. Builds machine code directly against the ISA:
   core 0 spawns a worker, they enter coupled mode, exchange a value over
   the direct-mode network with a same-cycle PUT/GET, broadcast a branch
   condition with BCAST/GETB, drop back to decoupled mode, and finish with
   a queue-mode SEND/RECV. Instructive to read alongside paper §3.

     dune exec examples/modes_tour.exe *)

module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Machine = Voltron_machine.Machine
module Config = Voltron_machine.Config

let assemble rows =
  let b = Image.builder () in
  List.iter
    (fun (label, bundle) ->
      (match label with Some l -> Image.place_label b l | None -> ());
      Image.emit b bundle)
    rows;
  Image.finish b

let reg r = Inst.Reg r
let imm i = Inst.Imm i

let master =
  assemble
    [
      (* Wake the worker, then rendezvous at the coupled-mode barrier. *)
      (None, [ Inst.Spawn { target = 1; entry = "worker" } ]);
      (None, [ Inst.Mode_switch Inst.Coupled ]);
      (* Lock-step region: r1 crosses to the worker in one cycle. *)
      (None, [ Inst.Mov { dst = 1; src = imm 21 } ]);
      (None, [ Inst.Put { dir = Inst.East; src = reg 1 } ]);
      (* Distributed branch: compute the condition here, broadcast it;
         both cores take the same branch in the same cycle. *)
      (None, [ Inst.Cmp { op = Inst.Gt; dst = 2; src1 = reg 1; src2 = imm 10 } ]);
      (None, [ Inst.Pbr { btr = 0; target = "join0" } ]);
      (None, [ Inst.Bcast { src = reg 2 } ]);
      (None, [ Inst.Nop ]);
      (None, [ Inst.Br { btr = 0; pred = Some (reg 2); invert = false } ]);
      (None, [ Inst.Mov { dst = 9; src = imm 999 } ] (* skipped *));
      (Some "join0", [ Inst.Mode_switch Inst.Decoupled ]);
      (* Asynchronous epilogue: collect the worker's result. *)
      (None, [ Inst.Recv { sender = 1; dst = 3; kind = Inst.Rv_data } ]);
      (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 3 } ]);
      (None, [ Inst.Halt ]);
    ]

let worker =
  assemble
    [
      (Some "worker", [ Inst.Mode_switch Inst.Coupled ]);
      (None, [ Inst.Nop ]);
      (* Same cycle as the master's PUT: the direct-mode move. *)
      (None, [ Inst.Get { dir = Inst.West; dst = 5 } ]);
      (None, [ Inst.Alu { op = Inst.Mul; dst = 6; src1 = reg 5; src2 = imm 2 } ]);
      (None, [ Inst.Pbr { btr = 0; target = "join1" } ]);
      (None, [ Inst.Nop ]);
      (None, [ Inst.Getb { dst = 7 } ]);
      (None, [ Inst.Br { btr = 0; pred = Some (reg 7); invert = false } ]);
      (None, [ Inst.Mov { dst = 6; src = imm 0 } ] (* skipped *));
      (Some "join1", [ Inst.Mode_switch Inst.Decoupled ]);
      (None, [ Inst.Send { target = 0; src = reg 6 } ]);
      (None, [ Inst.Sleep ]);
    ]

let () =
  let prog = Program.make ~images:[| master; worker |] ~mem_size:64 ~mem_init:[] in
  let machine = Machine.create (Config.default ~n_cores:2) prog in
  let result = Machine.run machine in
  (match result.Machine.outcome with
  | Machine.Finished -> ()
  | o -> failwith (Machine.outcome_to_string o));
  let answer = Voltron_mem.Memory.read (Machine.memory machine) 0 in
  Printf.printf "finished in %d cycles; mem[0] = %d (expected 42)\n"
    result.Machine.cycles answer;
  let st = Machine.stats machine in
  Printf.printf "coupled cycles %d, decoupled cycles %d, mode switches %d\n"
    st.Voltron_machine.Stats.coupled_cycles
    st.Voltron_machine.Stats.decoupled_cycles
    st.Voltron_machine.Stats.mode_switches;
  assert (answer = 42)
