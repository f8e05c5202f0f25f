module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Config = Voltron_machine.Config
module Hir = Voltron_ir.Hir
module Layout = Voltron_ir.Layout
module Lower = Voltron_ir.Lower
module Cfg = Voltron_ir.Cfg
module Memdep = Voltron_analysis.Memdep
module Depgraph = Voltron_analysis.Depgraph
module Doall_a = Voltron_analysis.Doall
module Check = Voltron_check.Check

type strategy =
  | Seq
  | Coupled_ilp
  | Strands
  | Dswp
  | Doall of doall_plan

and doall_plan = {
  dp_prefix : Hir.stmt list;
  dp_loop : Hir.for_loop;
  dp_suffix : Hir.stmt list;
  dp_accumulators : Doall_a.accumulator list;
  dp_speculative : bool;
}

type region_extent = {
  re_name : string;
  re_ranges : (int * int) array;
      (** per core: the half-open bundle-address range [lo, hi) the region
          occupies in that core's image *)
}

type t = {
  machine : Config.t;
  program : Hir.program;
  lay : Layout.t;
  lctx : Lower.ctx;
  synth : Synth.t;
  builders : Image.builder array;
  profile : Voltron_analysis.Profile.t Lazy.t;
  mutable infos : Check.region_info list;  (** reverse emission order *)
  mutable extents : region_extent list;  (** reverse emission order *)
}

let create ?profile machine (program : Hir.program) =
  let lay = Layout.compute program in
  let lctx = Lower.make_ctx ~layout:lay ~first_vreg:program.Hir.n_vregs in
  {
    machine;
    program;
    lay;
    lctx;
    synth = Synth.create program lctx;
    builders = Array.init machine.Config.n_cores (fun _ -> Image.builder ());
    profile =
      (match profile with
      | Some pr -> Lazy.from_val pr
      | None -> lazy (Voltron_analysis.Profile.collect program));
    infos = [];
    extents = [];
  }

let layout t = t.lay

let check_infos t = List.rev t.infos

let region_extents t = List.rev t.extents

(* Summarise a partitioned region for the static checker while the
   dependence analysis is still in scope: every memory operation with its
   assigned core, plus an aliasing oracle keyed by dependence-graph index.
   The checker uses this to re-verify the partitioners' contract that
   possibly-dependent memory operations never straddle cores in decoupled
   mode (paper §3.3). *)
let record_region_info t ~name ~mode ~(partition : Partition.t) ~memdep
    ~(dg : Depgraph.t) =
  let accesses =
    Array.to_list
      (Array.mapi
         (fun i (op : Cfg.lop) ->
           if Memdep.is_mem memdep op then
             Some
               {
                 Check.ma_id = i;
                 ma_core = partition.Partition.core_of.(i);
                 ma_write = Memdep.is_write memdep op;
                 ma_text = Format.asprintf "%a" Inst.pp op.Cfg.inst;
               }
           else None)
         dg.Depgraph.ops)
    |> List.filter_map Fun.id
  in
  t.infos <-
    {
      Check.ri_name = name;
      ri_decoupled = (mode = Inst.Decoupled);
      ri_accesses = accesses;
      ri_may_alias =
        (fun i j ->
          Memdep.ever_alias memdep dg.Depgraph.ops.(i) dg.Depgraph.ops.(j));
    }
    :: t.infos

let check_register_closed ~name stmts =
  let defs = Hir.defined_vregs stmts in
  let uses = Hir.used_vregs stmts in
  let free = List.filter (fun v -> not (List.mem v defs)) uses in
  if free <> [] then
    invalid_arg
      (Printf.sprintf
         "Codegen: region %s reads registers it never defines (v%s); regions \
          must be register-closed — pass values between regions through memory"
         name
         (String.concat ", v" (List.map string_of_int free)))

(* Emit a scheduled region's blocks into an image builder. *)
let emit_blocks t core (cfg : Cfg.t) (code : Voltron_isa.Bundle.t list array) =
  Array.iteri
    (fun bi (block : Cfg.block) ->
      Image.place_label t.builders.(core) block.Cfg.b_label;
      Image.emit_all t.builders.(core) code.(bi))
    cfg.Cfg.blocks

let emit_one t core bundle = Image.emit t.builders.(core) bundle

(* Lower + schedule a statement list entirely onto one core and emit it. *)
let emit_solo t core stmts =
  let cfg = Lower.region t.lctx stmts in
  let memdep = Memdep.create ~region_stmts:stmts cfg in
  let dg = Depgraph.build ~cfg ~memdep ~latency:Config.latency in
  let sched =
    Sched.schedule_region ~machine:t.machine ~cfg ~dg
      ~partition:(Partition.solo ~core ~dg) ~mode:Inst.Decoupled
  in
  emit_blocks t core cfg sched.Sched.block_code.(core)

(* --- Generic parallel region (ILP / strands / DSWP) ----------------------- *)

let emit_parallel t ~name stmts strategy =
  let cfg = Lower.region t.lctx stmts in
  let memdep = Memdep.create ~region_stmts:stmts cfg in
  let dg = Depgraph.build ~cfg ~memdep ~latency:Config.latency in
  let n_cores = t.machine.Config.n_cores in
  let partition, mode =
    match strategy with
    | Coupled_ilp ->
      (* Coupled execution is restricted to groups of four cores (paper
         §3.2: the 1-bit stall bus cannot span more within a cycle);
         extra cores idle through the region in lock-step. *)
      ( Partition.bug ~n_cores:(min 4 n_cores) ~comm_latency:1 ~dg ~cfg,
        Inst.Coupled )
    | Strands ->
      ( Partition.ebug ~n_cores ~comm_latency:3 ~dg ~cfg ~memdep
          ~profile:(Lazy.force t.profile),
        Inst.Decoupled )
    | Dswp -> (
      match Partition.dswp ~n_cores ~dg ~cfg ~memdep with
      | Some (p, _) -> (p, Inst.Decoupled)
      | None ->
        ( Partition.ebug ~n_cores ~comm_latency:3 ~dg ~cfg ~memdep
            ~profile:(Lazy.force t.profile),
          Inst.Decoupled ))
    | Seq | Doall _ -> invalid_arg "emit_parallel: not a parallel strategy"
  in
  if List.length partition.Partition.participants <= 1 then
    (* The partitioner kept everything on the master: plain sequential. *)
    let sched =
      Sched.schedule_region ~machine:t.machine ~cfg ~dg ~partition
        ~mode:Inst.Decoupled
    in
    emit_blocks t 0 cfg sched.Sched.block_code.(0)
  else begin
    record_region_info t ~name ~mode ~partition ~memdep ~dg;
    let sched = Sched.schedule_region ~machine:t.machine ~cfg ~dg ~partition ~mode in
    let participants = sched.Sched.participants in
    let workers = List.filter (fun c -> c <> 0) participants in
    let coupled = mode = Inst.Coupled in
    (* Master side. *)
    List.iter
      (fun w ->
        let entry = Lower.fresh_label t.lctx (Printf.sprintf "%s_w%d" name w) in
        emit_one t 0 [ Inst.Spawn { target = w; entry } ];
        (* Worker side, emitted in full here. *)
        Image.place_label t.builders.(w) entry)
      workers;
    if coupled then emit_one t 0 [ Inst.Mode_switch Inst.Coupled ];
    List.iter
      (fun w -> if coupled then emit_one t w [ Inst.Mode_switch Inst.Coupled ])
      workers;
    emit_blocks t 0 cfg sched.Sched.block_code.(0);
    List.iter (fun w -> emit_blocks t w cfg sched.Sched.block_code.(w)) workers;
    if coupled then begin
      emit_one t 0 [ Inst.Mode_switch Inst.Decoupled ];
      List.iter (fun w -> emit_one t w [ Inst.Mode_switch Inst.Decoupled ]) workers
    end
    else begin
      (* Join: each worker reports completion through the queue network. *)
      List.iter
        (fun w ->
          let sink = Lower.fresh_vreg t.lctx in
          emit_one t 0 [ Inst.Recv { sender = w; dst = sink; kind = Inst.Rv_sync } ])
        workers;
      List.iter
        (fun w -> emit_one t w [ Inst.Send { target = 0; src = Inst.Imm 1 } ])
        workers
    end;
    List.iter (fun w -> emit_one t w [ Inst.Sleep ]) workers
  end

(* --- DOALL region ---------------------------------------------------------- *)

(* Chunk-bound synthesis for core [k] of [n]: iteration count
   N = max(0, (limit - init + step - 1) / step); core k runs iterations
   [k*N/n, (k+1)*N/n), i.e. var in [init + step*lo, init + step*hi). *)
let chunk_bounds t (loop : Hir.for_loop) ~k ~n =
  let s = t.synth in
  let step = loop.Hir.step in
  let s1, d = Synth.bin s Inst.Sub loop.Hir.limit loop.Hir.init in
  let s2, d2 = Synth.bin s Inst.Add d (Hir.Imm (step - 1)) in
  let s3, n0 = Synth.bin s Inst.Div d2 (Hir.Imm step) in
  let s4, total = Synth.bin s Inst.Max n0 (Hir.Imm 0) in
  let s5, lo_n = Synth.bin s Inst.Mul total (Hir.Imm k) in
  let s6, lo = Synth.bin s Inst.Div lo_n (Hir.Imm n) in
  let s7, hi_n = Synth.bin s Inst.Mul total (Hir.Imm (k + 1)) in
  let s8, hi = Synth.bin s Inst.Div hi_n (Hir.Imm n) in
  let s9, from_off = Synth.bin s Inst.Mul lo (Hir.Imm step) in
  let s10, from_ = Synth.bin s Inst.Add loop.Hir.init from_off in
  let s11, to_off = Synth.bin s Inst.Mul hi (Hir.Imm step) in
  let s12, to_ = Synth.bin s Inst.Add loop.Hir.init to_off in
  ([ s1; s2; s3; s4; s5; s6; s7; s8; s9; s10; s11; s12 ], from_, to_, total)

let emit_doall t ~name plan =
  let n = t.machine.Config.n_cores in
  let loop = plan.dp_loop in
  let accs = plan.dp_accumulators in
  let n_accs = List.length accs in
  let scratch =
    if n_accs > 0 then Layout.scratch_alloc t.lay ((n - 1) * n_accs) else 0
  in
  let chunk_for from_ to_ =
    Synth.stmt t.synth
      (Hir.For { loop with Hir.init = from_; limit = to_ })
  in
  let tm_wrap core body =
    if plan.dp_speculative then begin
      emit_one t core [ Inst.Tm_begin ];
      body ();
      emit_one t core [ Inst.Tm_commit ]
    end
    else body ()
  in
  (* All-core TM rounds require every core to transact, even those without
     work — the empty-chunk loops below keep that invariant. *)
  let workers = List.init (n - 1) (fun i -> i + 1) in
  (* Master: spawn first so workers overlap the prefix. *)
  let entries =
    List.map
      (fun w ->
        let entry = Lower.fresh_label t.lctx (Printf.sprintf "%s_w%d" name w) in
        emit_one t 0 [ Inst.Spawn { target = w; entry } ];
        (w, entry))
      workers
  in
  (* Master fragment A: prefix + bounds. *)
  let bounds0, from0, to0, total0 = chunk_bounds t loop ~k:0 ~n in
  emit_solo t 0 (plan.dp_prefix @ bounds0);
  let master_total =
    match total0 with Hir.Reg r -> r | Hir.Imm _ -> assert false
  in
  tm_wrap 0 (fun () -> emit_solo t 0 [ chunk_for from0 to0 ]);
  (* Join. *)
  List.iter
    (fun (w, _) ->
      let sink = Lower.fresh_vreg t.lctx in
      emit_one t 0 [ Inst.Recv { sender = w; dst = sink; kind = Inst.Rv_sync } ])
    entries;
  (* Accumulator reduction: master partial + committed worker partials. *)
  List.iteri
    (fun j (acc : Doall_a.accumulator) ->
      List.iteri
        (fun wi _ ->
          let tmp = Lower.fresh_vreg t.lctx in
          let addr = scratch + (wi * n_accs) + j in
          emit_one t 0 [ Inst.Load { dst = tmp; base = Inst.Imm addr; offset = Inst.Imm 0 } ];
          emit_one t 0
            [
              Inst.Alu
                {
                  op = Inst.Add;
                  dst = acc.Doall_a.acc_vreg;
                  src1 = Inst.Reg acc.Doall_a.acc_vreg;
                  src2 = Inst.Reg tmp;
                };
            ])
        workers)
    accs;
  (* Loop variable fix-up: after a serial run, var = init + step * N. *)
  let fix1, off = Synth.bin t.synth Inst.Mul (Hir.Reg master_total) (Hir.Imm loop.Hir.step) in
  let fix2 =
    Synth.assign t.synth loop.Hir.var (Hir.Alu (Inst.Add, loop.Hir.init, off))
  in
  emit_solo t 0 ([ fix1; fix2 ] @ plan.dp_suffix);
  (* Workers. *)
  List.iteri
    (fun wi (w, entry) ->
      Image.place_label t.builders.(w) entry;
      let bounds, from_, to_, _ = chunk_bounds t loop ~k:w ~n in
      let resets =
        List.map
          (fun (acc : Doall_a.accumulator) ->
            Synth.assign t.synth acc.Doall_a.acc_vreg (Hir.Operand (Hir.Imm 0)))
          accs
      in
      emit_solo t w (plan.dp_prefix @ bounds @ resets);
      tm_wrap w (fun () ->
          emit_solo t w [ chunk_for from_ to_ ];
          (* Partials are stored inside the transaction so the commit
             publishes them with the chunk. *)
          List.iteri
            (fun j (acc : Doall_a.accumulator) ->
              let addr = scratch + (wi * n_accs) + j in
              emit_one t w
                [
                  Inst.Store
                    { base = Inst.Imm addr; offset = Inst.Imm 0; src = Inst.Reg acc.Doall_a.acc_vreg };
                ])
            accs);
      emit_one t w [ Inst.Send { target = 0; src = Inst.Imm 1 } ];
      emit_one t w [ Inst.Sleep ])
    entries

(* --- Public API ------------------------------------------------------------ *)

let emit_region t ~name stmts strategy =
  check_register_closed ~name stmts;
  (* Every bundle the region adds — master glue, spawns, worker bodies,
     joins — lands between these two snapshots, so the extent is exact
     per core (regions are contiguous in emission order). *)
  let lo = Array.map Image.next_addr t.builders in
  (match strategy with
  | Seq -> emit_solo t 0 stmts
  | Coupled_ilp | Strands | Dswp ->
    if t.machine.Config.n_cores <= 1 then emit_solo t 0 stmts
    else emit_parallel t ~name stmts strategy
  | Doall plan ->
    if t.machine.Config.n_cores <= 1 then emit_solo t 0 stmts
    else emit_doall t ~name plan);
  let ranges =
    Array.mapi (fun c lo_c -> (lo_c, Image.next_addr t.builders.(c))) lo
  in
  t.extents <- { re_name = name; re_ranges = ranges } :: t.extents

let finalize t =
  emit_one t 0 [ Inst.Halt ];
  let images = Array.map Image.finish t.builders in
  Program.make ~images ~mem_size:(max 1 (Layout.mem_size t.lay))
    ~mem_init:(Layout.mem_init t.lay t.program)
