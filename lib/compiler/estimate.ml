(* Static per-region, per-mode cycle estimator.

   The dynamic side of mode selection uses measured profiles; this module
   produces the same shape of numbers from the abstract interpreter
   alone: per-block in-order schedule lengths from machine latencies,
   block repeat counts from static trip-count estimates, and a static
   miss-stall bound from the footprint/stride cache model
   (Profile.of_static). The constants below were fitted against the obs
   layer's per-region cycle attribution on the 4-core hybrid sweep. *)

module Hir = Voltron_ir.Hir
module Cfg = Voltron_ir.Cfg
module Inst = Voltron_isa.Inst
module Config = Voltron_machine.Config
module Absint = Voltron_absint.Absint
module Profile = Voltron_analysis.Profile

type t = {
  machine : Config.t;
  summary : Absint.summary;
  static_profile : Profile.t;
}

let create ~machine ?summary (p : Hir.program) =
  let summary = match summary with Some s -> s | None -> Absint.analyze p in
  {
    machine;
    summary;
    static_profile = Profile.of_static ~summary ~cache:machine.Config.cache p;
  }

let static_profile t = t.static_profile

let miss_penalty = 20.

(* Effective latency of one op, charging loads their static miss bound. *)
let eff_latency t (op : Cfg.lop) =
  let base = float_of_int (Config.latency op.Cfg.inst) in
  match op.Cfg.inst with
  | Inst.Load _ when op.Cfg.hir_sid >= 0 ->
    base +. (Profile.miss_rate t.static_profile op.Cfg.hir_sid *. miss_penalty)
  | _ -> base

(* In-order single-issue schedule length of one block: one issue slot per
   cycle, an op stalls until its sources are ready. *)
let block_sched t (b : Cfg.block) =
  let ready : (Inst.reg, float) Hashtbl.t = Hashtbl.create 16 in
  let clock = ref 0. in
  let last = ref 0. in
  List.iter
    (fun (op : Cfg.lop) ->
      let avail =
        List.fold_left
          (fun acc r -> Float.max acc (Option.value ~default:0. (Hashtbl.find_opt ready r)))
          !clock
          (Inst.uses op.Cfg.inst)
      in
      let finish = avail +. eff_latency t op in
      List.iter (fun r -> Hashtbl.replace ready r finish) (Inst.defs op.Cfg.inst);
      last := Float.max !last finish;
      clock := avail +. 1.)
    b.Cfg.b_ops;
  (* Terminator branch costs its own slot; a long-latency tail op keeps
     the next iteration waiting either way. *)
  let term = match b.Cfg.b_term with Cfg.Stop -> 0. | _ -> 1. in
  Float.max (!clock +. term) !last

(* Critical path through one block (unbounded issue width). *)
let block_cp t (b : Cfg.block) =
  let ready : (Inst.reg, float) Hashtbl.t = Hashtbl.create 16 in
  let cp = ref 0. in
  List.iter
    (fun (op : Cfg.lop) ->
      let avail =
        List.fold_left
          (fun acc r -> Float.max acc (Option.value ~default:0. (Hashtbl.find_opt ready r)))
          0.
          (Inst.uses op.Cfg.inst)
      in
      let finish = avail +. eff_latency t op in
      List.iter (fun r -> Hashtbl.replace ready r finish) (Inst.defs op.Cfg.inst);
      cp := Float.max !cp finish)
    b.Cfg.b_ops;
  !cp

(* Static repeat count of a block: the count of the HIR statements it was
   lowered from (max across its ops; loop plumbing carries sid -1). *)
let block_count t (b : Cfg.block) =
  List.fold_left
    (fun acc (op : Cfg.lop) ->
      if op.Cfg.hir_sid >= 0 then
        Float.max acc (Absint.count t.summary op.Cfg.hir_sid)
      else acc)
    0. b.Cfg.b_ops

(* Fitted overheads, calibrated against the obs layer's per-region cycle
   attribution on the 4-core hybrid sweep (see PREDICT.json in CI). The
   factors name the mechanism the analytical core misses:
   - coupled lock-step cores share one memory system and resolve every
     branch together, so real blocks run ~1.6x their ideal schedule
     (attribution shows 25-30% D-stall the single-core miss model does
     not see);
   - DOALL chunks on n cores multiply memory pressure (56-90% D-stall
     measured) — the chunked body runs ~1.75x its share;
   - DSWP stages block on operand-queue round-trips every iteration
     (attribution: ~70% recv-data), inflating the balanced-pipeline
     estimate by ~7.5x;
   - decoupled strands run the same partition as coupled ILP without the
     lock-step penalty, trading it for predicate-queue waits. *)
let ilp_comm_overhead = 2.0     (* per block×core: operand network + lockstep branch *)
let ilp_lockstep_factor = 1.6   (* shared-memory + lockstep inflation, fitted *)
let dswp_fill_overhead = 64.    (* pipeline fill/drain *)
let dswp_queue_factor = 7.5     (* per-iteration queue round-trips, fitted *)
let doall_chunk_overhead = 24.  (* spawn + TM begin/commit per chunk *)
let doall_mem_factor = 1.75     (* n-core memory contention on the chunked body, fitted *)
let strands_decoupling = 0.95   (* vs the ideal coupled schedule, fitted *)

let seq_cycles t stmts =
  let cfg = Select.lower_region stmts in
  Array.fold_left
    (fun acc b ->
      let n = block_count t b in
      if n <= 0. then acc else acc +. (n *. block_sched t b))
    0. cfg.Cfg.blocks

(* Ideal n-wide partitioned schedule — before the lock-step penalty, so
   both ILP and strands derive from it. *)
let ilp_base t ~n_cores stmts =
  let cfg = Select.lower_region stmts in
  let n = float_of_int (max 1 n_cores) in
  Array.fold_left
    (fun acc b ->
      let c = block_count t b in
      if c <= 0. then acc
      else
        let ops = float_of_int (List.length b.Cfg.b_ops) in
        let per_iter =
          Float.max (block_cp t b) ((ops /. n) +. 1.) +. ilp_comm_overhead
        in
        acc +. (c *. per_iter))
    0. cfg.Cfg.blocks

let ilp_cycles t ~n_cores stmts = ilp_base t ~n_cores stmts *. ilp_lockstep_factor

let dswp_cycles t ~machine stmts =
  let est = Select.dswp_estimate ~machine stmts in
  (seq_cycles t stmts /. Float.max 1.0 est *. dswp_queue_factor)
  +. dswp_fill_overhead

let strands_cycles t ~n_cores stmts =
  ilp_base t ~n_cores stmts *. strands_decoupling

let doall_cycles t ~n_cores (dp : Codegen.doall_plan) =
  let n = float_of_int (max 1 n_cores) in
  let prefix = seq_cycles t dp.Codegen.dp_prefix in
  let suffix = seq_cycles t dp.Codegen.dp_suffix in
  let loop_stmt =
    { Hir.sid = -1; node = Hir.For dp.Codegen.dp_loop }
  in
  let body = seq_cycles t [ loop_stmt ] in
  prefix +. (body /. n *. doall_mem_factor) +. (doall_chunk_overhead *. n)
  +. suffix

let strategy_cycles t stmts (s : Codegen.strategy) =
  let n_cores = t.machine.Config.n_cores in
  match s with
  | Codegen.Seq -> seq_cycles t stmts
  | Codegen.Coupled_ilp -> ilp_cycles t ~n_cores stmts
  | Codegen.Strands -> strands_cycles t ~n_cores stmts
  | Codegen.Dswp -> dswp_cycles t ~machine:t.machine stmts
  | Codegen.Doall dp -> doall_cycles t ~n_cores dp

type row = {
  e_region : string;
  e_strategy : string;
  e_cycles : float;
}

let table t (plan : Select.planned_region list) =
  List.map
    (fun (pr : Select.planned_region) ->
      {
        e_region = pr.Select.pr_name;
        e_strategy = Select.strategy_name pr.Select.pr_strategy;
        e_cycles = strategy_cycles t pr.Select.pr_stmts pr.Select.pr_strategy;
      })
    plan
