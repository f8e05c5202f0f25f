module Inst = Voltron_isa.Inst
module Bundle = Voltron_isa.Bundle
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Semantics = Voltron_isa.Semantics
module Memory = Voltron_mem.Memory
module Tm = Voltron_mem.Tm
module Coherence = Voltron_mem.Coherence
module Mesh = Voltron_net.Mesh
module Net = Voltron_net.Operand_network
module Fault = Voltron_fault.Fault
module Ecc = Voltron_fault.Ecc

(* Why a core cannot make progress this cycle — the unit of the watchdog's
   structured diagnosis, and (mapped through [stall_of_wait]) of the stall
   accounting. *)
type wait =
  | W_reg of Stats.stall_kind  (** scoreboard: source operand in flight *)
  | W_ifetch
  | W_dmem
  | W_btr  (** branch-target register still being written *)
  | W_recv of { sender : int; kind : Stats.stall_kind }
  | W_getb
  | W_send_full of int  (** receive queue of that core at capacity *)
  | W_get_latch of Inst.dir  (** GET on an empty direct-mode latch *)
  | W_stall_fault  (** injected transient stall in effect *)
  | W_barrier of Inst.mode
  | W_commit
  | W_serial
  | W_asleep
  | W_halted

(* One cycle (or [k] identical cycles) of one core's time: busy issuing,
   waiting (with the wait and the peer core it resolves to, when it names
   one), or held by the coupled-mode stall bus on a peer's behalf. *)
type blame_event =
  | Blame_busy
  | Blame_wait of { b_wait : wait; b_on : int  (** -1: no blamed core *) }
  | Blame_lockstep of { b_kind : Stats.stall_kind }

(* What the observation bus carries to subscribers. *)
type event =
  | Core_cycles of {
      core : int;
      pc : int;
      k : int;
      redo : bool;
      what : blame_event;
    }
  | Window of { from : int; upto : int }
  | Traced of Trace.event
  | Access of { core : int; completion : int; kind : Coherence.kind; addr : int }
  | Tm_event of Tm.event
  | Net_event of Net.event

type core_diag = {
  d_core : int;
  d_pc : int;
  d_wait : wait option;  (** [None]: the core could issue (not the culprit) *)
  d_bundle : string;  (** rendering of the bundle the core is stuck on *)
}

type diagnosis = {
  d_cycle : int;
  d_last_progress : int;
  d_mode : Inst.mode;
  d_cores : core_diag array;
  d_queue : (int * int * string) list;  (** in-flight messages: src, dst, state *)
  d_blame : (int * int) option;  (** blocked core -> core it is waiting on *)
}

type outcome =
  | Finished
  | Out_of_cycles
  | Deadlock of diagnosis
  | Fault_limit of diagnosis
  | Stopped of diagnosis

type result = {
  outcome : outcome;
  cycles : int;
  checksum : int;
}

type status =
  | Running
  | Asleep
  | Halted
  | At_barrier of Inst.mode
  | At_commit
  | Wait_serial
  | Stuck of wait
      (** wedged mid-bundle on a condition that can never clear (e.g. GET
          with no paired PUT); the watchdog will convert it to a diagnosis *)

(* What produced a register's in-flight value: classifies scoreboard
   stalls (paper Fig. 12 taxonomy). *)
type producer = P_load | P_recv_data | P_recv_pred | P_getb | P_other

type core_state = {
  id : int;
  image : Image.t;
  code : Image.decoded array;  (** [Image.decoded_table image], read-only *)
  mutable pc : int;
  mutable status : status;
  mutable regs : int array;
  mutable ready : int array;
  mutable prod : producer array;
  btrs : int array;
  btr_ready : int array;
  mutable fetch_done : int;
  mutable mem_busy : int;
  (* In-order blocking cache (paper §3.2: "if one core stalls due to cache
     misses, all the cores must stall"): a miss freezes the core until the
     fill completes; hits stay pipelined through the scoreboard. *)
  mutable miss_stall_until : int;
  (* Injected transient stall fault: the core freezes until this cycle. *)
  mutable stall_until : int;
  (* Chunk snapshot for TM rollback: register file + the chunk's start pc. *)
  mutable tm_snapshot : (int array * int) option;
  mutable tm_serial : bool;
  (* VLIW read-before-write scratch: [snap.(r)] holds the pre-issue value of
     register [r] for the bundle currently issuing iff
     [snap_epoch.(r) = snap_gen]. Generation-stamped so taking a snapshot is
     O(sources), with no per-cycle clearing or allocation. *)
  mutable snap : int array;
  mutable snap_epoch : int array;
  mutable snap_gen : int;
  (* Verdict memo (fast-forward only): [blocker]'s last blocked verdict,
     valid while [now < memo_wake]. 0 (never valid) unless set under
     [ff_active]; see [blocker] for what drops it. *)
  mutable memo : wait option;
  mutable memo_wake : int;
}

type t = {
  cfg : Config.t;
  prog : Program.t;
  mem : Memory.t;
  tm : Tm.t;
  hier : Coherence.t;
  net : Net.t;
  cores : core_state array;
  st : Stats.t;
  inj : Fault.t option;  (** fault injector; [None] when all rates are 0 *)
  ecc : Ecc.t option;  (** ECC shadow state, present iff [inj] is *)
  mutable mode : Inst.mode;
  mutable now : int;
  mutable serial_queue : int list;
  mutable last_progress : int;
  (* The observation bus: subscribers in subscription order, and whether
     any of them must see every cycle. Empty (the default), every event
     site is a single branch, off the allocation path. *)
  mutable subs : (event -> unit) array;
  mutable every_cycle : bool;
  (* A stop request any subscriber can raise; the run loop converts it into
     a [Stopped] outcome at the end of the cycle. *)
  mutable stop_requested : bool;
  (* Stall fast-forward (Config.fast_forward). [ff_active] is resolved once
     at run entry: on unless a subscriber declared [every_cycle] or a fault
     injector is rolling per-cycle randomness. [wake] is a scratch
     out-parameter of [blocker]: the first cycle its verdict can change.
     [sc_wait]/[sc_waiting] are per-core scratch for the step functions,
     preallocated to stay off the per-cycle allocation path. *)
  mutable ff_active : bool;
  mutable wake : int;
  sc_wait : wait option array;
  sc_waiting : bool array;
  (* One [Some (W_recv _)] per (sender, kind), indexed
     [sender * 3 + recv_slot kind]: a blocked RECV allocates nothing. *)
  recv_waits : wait option array;
}

let initial_regs = 64

(* Per-cycle code keeps off tiny cross-module calls and polymorphic
   primitives: libraries are compiled [-opaque] in the default profile, so
   a call into another module is never inlined, and polymorphic
   [max]/[min]/[=] run the runtime's generic comparison even on ints.
   Hence these int-specialised helpers, status matches instead of [=], and
   [decoded_at] instead of [Image.decoded]. *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

let is_running cs =
  match cs.status with
  | Running -> true
  | Asleep | Halted | At_barrier _ | At_commit | Wait_serial | Stuck _ -> false

(* The predecoded bundle at [pc] of [cs]'s image, with [Image.decoded]'s
   range check and message. *)
let decoded_at cs pc =
  let code = cs.code in
  if pc < 0 || pc >= Array.length code then
    invalid_arg
      (Printf.sprintf "Image.decoded: address %d out of [0,%d)" pc
         (Array.length code));
  code.(pc)

let fresh_core cfg image id =
  {
    id;
    image;
    code = Image.decoded_table image;
    pc = 0;
    status = (if id = 0 then Running else Asleep);
    regs = Array.make initial_regs 0;
    ready = Array.make initial_regs 0;
    prod = Array.make initial_regs P_other;
    btrs = Array.make cfg.Config.n_btrs 0;
    btr_ready = Array.make cfg.Config.n_btrs 0;
    fetch_done = 0;
    mem_busy = 0;
    miss_stall_until = 0;
    stall_until = 0;
    tm_snapshot = None;
    tm_serial = false;
    snap = Array.make initial_regs 0;
    snap_epoch = Array.make initial_regs 0;
    snap_gen = 0;
    memo = None;
    memo_wake = 0;
  }

let validate_widths cfg (prog : Program.t) =
  Array.iter
    (fun image ->
      for addr = 0 to Image.length image - 1 do
        Bundle.check ~issue_width:cfg.Config.issue_width
          ~comm_width:cfg.Config.comm_width (Image.fetch image addr)
      done)
    prog.images

(* A RECV kind's slot, and the stall kind its wait counts as, by slot. *)
let recv_slot = function Inst.Rv_data -> 0 | Inst.Rv_pred -> 1 | Inst.Rv_sync -> 2

let recv_stall_kinds = [| Stats.Recv_data; Stats.Recv_pred; Stats.Sync |]

let create cfg (prog : Program.t) =
  if Program.n_cores prog <> cfg.Config.n_cores then
    invalid_arg
      (Printf.sprintf "Machine.create: program has %d cores, config %d"
         (Program.n_cores prog) cfg.Config.n_cores);
  validate_widths cfg prog;
  let mem = Memory.create prog.mem_size in
  Memory.load_init mem prog.mem_init;
  let inj =
    if Fault.enabled cfg.fault then Some (Fault.create cfg.fault) else None
  in
  let ecc =
    match inj with
    | None -> None
    | Some _ ->
      let e = Ecc.create () in
      Memory.attach_ecc mem e;
      Some e
  in
  let mesh = Config.mesh cfg in
  let t =
    {
      cfg;
      prog;
      mem;
      tm = Tm.create mem ~n_cores:cfg.n_cores;
      hier = Coherence.create cfg.cache ~n_cores:cfg.n_cores;
      net =
        Net.create ?faults:inj ~hop_cost:cfg.net_hop_cost mesh
          ~receive_capacity:cfg.net_capacity;
      cores = Array.init cfg.n_cores (fun id -> fresh_core cfg prog.images.(id) id);
      st = Stats.create ~n_cores:cfg.n_cores;
      inj;
      ecc;
      mode = Inst.Decoupled;
      now = 0;
      serial_queue = [];
      last_progress = 0;
      subs = [||];
      every_cycle = false;
      stop_requested = false;
      ff_active = false;
      wake = max_int;
      sc_wait = Array.make cfg.n_cores None;
      sc_waiting = Array.make cfg.n_cores false;
      recv_waits =
        Array.init (3 * cfg.n_cores) (fun i ->
            Some (W_recv { sender = i / 3; kind = recv_stall_kinds.(i mod 3) }));
    }
  in
  (* Core 0's first fetch starts at cycle 0. *)
  t.cores.(0).fetch_done <- Coherence.access t.hier ~now:0 ~core:0 Coherence.Ifetch 0;
  t

let memory t = t.mem
let stats t = t.st
let coherence t = t.hier
let network t = t.net
let tm t = t.tm
let now t = t.now
let mode t = t.mode
let request_stop t = t.stop_requested <- true
let pc t ~core = t.cores.(core).pc
let config t = t.cfg

(* --- Observation bus ------------------------------------------------------ *)

let observed t = Array.length t.subs > 0

let emit t ev =
  let subs = t.subs in
  for i = 0 to Array.length subs - 1 do
    subs.(i) ev
  done

let subscribe t ?(every_cycle = false) f =
  if not (observed t) then begin
    (* The first subscriber installs the one forwarding monitor on each
       subsystem; until then their event sites stay a single branch. *)
    Coherence.set_monitor t.hier (fun ~core ~completion kind addr ->
        emit t (Access { core; completion; kind; addr }));
    Tm.set_monitor t.tm (fun ev -> emit t (Tm_event ev));
    Net.set_monitor t.net (fun ev -> emit t (Net_event ev))
  end;
  t.subs <- Array.append t.subs [| f |];
  t.every_cycle <- t.every_cycle || every_cycle

let set_on_window t f =
  subscribe t (function Window { from; upto } -> f ~from ~upto | _ -> ())

(* Rare machine-level events only: the argument is built unconditionally. *)
let trace t ev = if observed t then emit t (Traced ev)

(* --- Register file with growth ------------------------------------------- *)

let ensure_reg cs r =
  let n = Array.length cs.regs in
  if r >= n then begin
    let n' = imax (r + 1) (2 * n) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    cs.regs <- grow cs.regs 0;
    cs.ready <- grow cs.ready 0;
    cs.prod <- grow cs.prod P_other;
    cs.snap <- grow cs.snap 0;
    (* Epoch 0 never matches a live generation: [snap_gen] starts at 0 and
       is bumped before any snapshot is taken. *)
    cs.snap_epoch <- grow cs.snap_epoch 0
  end

let read_reg cs r =
  ensure_reg cs r;
  cs.regs.(r)

let write_reg cs r v ~ready ~prod =
  ensure_reg cs r;
  cs.regs.(r) <- v;
  cs.ready.(r) <- ready;
  cs.prod.(r) <- prod

let reg t ~core r = read_reg t.cores.(core) r

(* --- Stall analysis ------------------------------------------------------ *)

(* The blocker's scoreboard verdict per producer: literal constants, so a
   stalled operand allocates nothing. *)
let producer_wait = function
  | P_load -> Some (W_reg Stats.D_stall)
  | P_recv_data -> Some (W_reg Stats.Recv_data)
  | P_recv_pred -> Some (W_reg Stats.Recv_pred)
  | P_getb -> Some (W_reg Stats.Sync)
  | P_other -> Some (W_reg Stats.Lat_stall)

let stall_of_wait = function
  | W_reg k -> k
  | W_ifetch -> Stats.I_stall
  | W_dmem -> Stats.D_stall
  | W_btr -> Stats.Lat_stall
  | W_recv { kind; _ } -> kind
  | W_getb | W_send_full _ | W_get_latch _ | W_stall_fault | W_barrier _
  | W_commit | W_serial | W_asleep | W_halted ->
    Stats.Sync

(* Which core is [cs] waiting on, when its wait names one — shared by the
   watchdog's diagnosis and the causal profiler's blame edges. *)
let blame_of t cs w =
  match w with
  | W_recv { sender; _ } -> Some sender
  | W_get_latch dir -> Mesh.neighbour (Net.mesh t.net) cs.id dir
  | W_send_full dst -> Some dst
  | W_commit ->
    Array.to_list t.cores
    |> List.find_opt (fun c -> c.status <> At_commit)
    |> Option.map (fun c -> c.id)
  | W_barrier _ ->
    Array.to_list t.cores
    |> List.find_opt (fun c ->
           match c.status with At_barrier _ -> false | _ -> true)
    |> Option.map (fun c -> c.id)
  | W_serial -> (
    match t.serial_queue with
    | head :: _ when head <> cs.id -> Some head
    | _ -> None)
  | W_reg _ | W_ifetch | W_dmem | W_btr | W_getb | W_stall_fault | W_asleep
  | W_halted ->
    None

(* The wait a non-Running status stands for. Only called when observed —
   the [W_barrier] case allocates. *)
let wait_of_status = function
  | Running -> assert false
  | Asleep -> W_asleep
  | Halted -> W_halted
  | At_barrier m -> W_barrier m
  | At_commit -> W_commit
  | Wait_serial -> W_serial
  | Stuck w -> w

(* Every core-cycle is credited exactly once: to the [Stats] counters and,
   when observed, as one [Core_cycles] event — [k > 1] when a fast-forward
   window credits [k] identical cycles in bulk. The [observed] check comes
   first so the detached path allocates nothing. *)
let report t cs ~pc ~k ~redo what =
  emit t (Core_cycles { core = cs.id; pc; k; redo; what })

let report_wait t cs w k =
  let b_on = match blame_of t cs w with Some c -> c | None -> -1 in
  report t cs ~pc:cs.pc ~k ~redo:cs.tm_serial (Blame_wait { b_wait = w; b_on })

(* [k] cycles of [cs] blocked on [w]. *)
let stall_on t cs w k =
  Stats.add_stall t.st ~core:cs.id (stall_of_wait w) k;
  if observed t then report_wait t cs w k

(* Same, for a core whose status (rather than its blocker) is the wait —
   always a synchronisation stall. *)
let stall_status t cs k =
  Stats.add_stall t.st ~core:cs.id Stats.Sync k;
  if observed t then report_wait t cs (wait_of_status cs.status) k

(* The tracer is a projection of the bus: issues and stalls come from the
   core-cycle reports, sends, spawns and receives from the network's
   events, and only the machine-level rest travels as [Traced]. *)
let trace_event t = function
  | Core_cycles { core; pc; what = Blame_busy; _ } ->
    let ops = (decoded_at t.cores.(core) pc).Image.d_real_ops in
    Some (Trace.Issue { cycle = t.now; core; pc; ops })
  | Core_cycles { what = Blame_wait { b_wait = W_asleep | W_halted; _ }; _ } ->
    None
  | Core_cycles { core; what = Blame_wait { b_wait; _ }; _ } ->
    Some (Trace.Stall { cycle = t.now; core; kind = stall_of_wait b_wait })
  | Core_cycles { core; what = Blame_lockstep { b_kind }; _ } ->
    Some (Trace.Stall { cycle = t.now; core; kind = b_kind })
  | Net_event (Net.Ev_send { ev_src; ev_dst; ev_payload = Net.Value _; _ }) ->
    Some (Trace.Sent { cycle = t.now; src = ev_src; dst = ev_dst })
  | Net_event (Net.Ev_send { ev_src; ev_dst; ev_payload = Net.Start _; _ }) ->
    Some (Trace.Spawned { cycle = t.now; by = ev_src; target = ev_dst })
  | Net_event (Net.Ev_deliver { ev_src; ev_dst; ev_payload = Net.Value _; _ })
    ->
    Some (Trace.Recvd { cycle = t.now; core = ev_dst; sender = ev_src })
  | Traced ev -> Some ev
  | Net_event _ | Window _ | Access _ | Tm_event _ -> None

let set_tracer t tr =
  subscribe t ~every_cycle:true (fun ev ->
      Option.iter (Trace.record tr) (trace_event t ev))

(* First reason the core cannot issue its current bundle this cycle, or
   [None] when it can. Architecturally side-effect-free; as an
   out-parameter it leaves in [t.wake] the first cycle at which the verdict
   it returned can change (the expiry of the FIRST failing condition in
   scan order — a later condition may then take over, which is why the
   fast-forward window ends there and not at "when the core can issue").
   Wake times that need a network walk are only computed under
   [t.ff_active]; event-driven waits report [max_int]. *)
(* The per-op and per-register scans are toplevel functions threading
   their context as arguments: the blocker runs for every running core
   every cycle, and a local closure here would cost ~20 heap words per
   core-cycle. *)
let blocker_check_op t cs now op =
  match op with
  | Inst.Load _ | Inst.Store _ ->
    if cs.mem_busy > now then begin
      t.wake <- cs.mem_busy;
      Some W_dmem
    end
    else None
  | Inst.Br { btr; _ } ->
    if cs.btr_ready.(btr) > now then begin
      t.wake <- cs.btr_ready.(btr);
      Some W_btr
    end
    else None
  | Inst.Recv { sender; kind; _ } ->
    if Net.recv_ready t.net ~now ~core:cs.id ~sender then None
    else begin
      if t.ff_active then
        t.wake <- Net.next_value_ready t.net ~core:cs.id ~sender;
      if sender >= 0 && sender < Array.length t.cores then
        t.recv_waits.(sender * 3 + recv_slot kind)
      else
        (* Off-mesh sender (unvalidated asm): never deliverable. *)
        Some (W_recv { sender; kind = recv_stall_kinds.(recv_slot kind) })
    end
  | Inst.Getb _ ->
    if Net.getb_ready t.net ~now ~core:cs.id then None
    else begin
      if t.ff_active then t.wake <- Net.getb_wake t.net ~core:cs.id;
      Some W_getb
    end
  | Inst.Send { target; _ } | Inst.Spawn { target; _ } ->
    if Net.pending t.net ~src:cs.id ~dst:target >= t.cfg.net_capacity
    then begin
      (* Drains only when the receiver issues its RECV — event-driven. *)
      t.wake <- max_int;
      Some (W_send_full target)
    end
    else None
  | Inst.Alu _ | Inst.Fpu _ | Inst.Cmp _ | Inst.Select _ | Inst.Mov _
  | Inst.Pbr _ | Inst.Bcast _ | Inst.Put _ | Inst.Get _ | Inst.Sleep
  | Inst.Mode_switch _ | Inst.Tm_begin | Inst.Tm_commit | Inst.Halt
  | Inst.Nop ->
    None

let rec blocker_reg_loop t cs now (u : int array) j =
  if j >= Array.length u then None
  else
    let r = u.(j) in
    if cs.ready.(r) > now then begin
      t.wake <- cs.ready.(r);
      producer_wait cs.prod.(r)
    end
    else blocker_reg_loop t cs now u (j + 1)

let rec blocker_op_loop t cs now (ops : Inst.t array) (uses : int array array)
    n_ops i =
  if i >= n_ops then None
  else
    match blocker_reg_loop t cs now uses.(i) 0 with
    | Some _ as s -> s
    | None -> (
      match blocker_check_op t cs now ops.(i) with
      | Some _ as s -> s
      | None -> blocker_op_loop t cs now ops uses n_ops (i + 1))

let blocker_scan t cs =
  let now = t.now in
  if now < cs.stall_until then begin
    t.wake <- cs.stall_until;
    Some W_stall_fault
  end
  else if now < cs.miss_stall_until then begin
    t.wake <- cs.miss_stall_until;
    Some W_dmem
  end
  else if now < cs.fetch_done then begin
    t.wake <- cs.fetch_done;
    Some W_ifetch
  end
  else begin
    let d = decoded_at cs cs.pc in
    if d.Image.d_max_reg >= 0 then ensure_reg cs d.Image.d_max_reg;
    blocker_op_loop t cs now d.Image.d_ops d.Image.d_uses
      (Array.length d.Image.d_ops) 0
  end

(* [blocker_scan] behind the verdict memo. Under fast-forward a blocked
   verdict and its wake are kept on the core and returned, without a
   rescan, until the wake: the thresholds it compares against (fill,
   scoreboard, memory-unit and branch-target times, message arrival) only
   move when the core itself issues, and the scan's earlier, passing
   conditions cannot start failing as time passes. What else can change
   a verdict early drops the memo ([forget]): a SEND or SPAWN enqueued to
   the core, its receiver dequeuing one of its messages (the channel of a
   [W_send_full] drains) and any BCAST. An issue needs a [None] verdict,
   which is never memoised, so a core that issues has no memo left. *)
let blocker t cs =
  if t.now < cs.memo_wake then begin
    t.wake <- cs.memo_wake;
    cs.memo
  end
  else
    match blocker_scan t cs with
    | None -> None
    | Some _ as v ->
      if t.ff_active then begin
        cs.memo <- v;
        cs.memo_wake <- t.wake
      end;
      v

let forget cs = cs.memo_wake <- 0

let forget_all t = Array.iter forget t.cores

(* --- Bundle execution ----------------------------------------------------- *)

(* VLIW read-before-write: snapshot every source register of the bundle
   before any of its effects land — into the core's generation-stamped
   scratch, so a snapshot costs O(sources) writes and no allocation. *)
let snapshot_sources cs (d : Image.decoded) =
  if d.Image.d_max_reg >= 0 then ensure_reg cs d.Image.d_max_reg;
  cs.snap_gen <- cs.snap_gen + 1;
  let srcs = d.Image.d_srcs in
  for i = 0 to Array.length srcs - 1 do
    let r = srcs.(i) in
    cs.snap.(r) <- cs.regs.(r);
    cs.snap_epoch.(r) <- cs.snap_gen
  done

let read_operand cs (o : Inst.operand) =
  match o with
  | Inst.Imm i -> i
  | Inst.Reg r ->
    if r < Array.length cs.snap_epoch && cs.snap_epoch.(r) = cs.snap_gen then
      cs.snap.(r)
    else failwith "Machine: operand missing from bundle source snapshot"

(* Enqueue a SEND or SPAWN payload; the receiver's verdict may change. *)
let send_to t cs target payload =
  let now = t.now in
  (match Net.send t.net ~now ~src:cs.id ~dst:target payload with
  | Ok () -> ()
  | Error Net.Channel_full ->
    (* Overflow NACK: the send is parked and retried with backoff rather
       than wedging the machine (can only arise under fault injection,
       where a retrying message holds its channel slot longer than the
       occupancy the issue check saw). *)
    Net.defer t.net ~now ~src:cs.id ~dst:target payload
  | Error (Net.Bad_destination _ as e) ->
    failwith
      (Printf.sprintf "core %d cycle %d: %s" cs.id now
         (Net.error_to_string (Net.Send_failed e))));
  forget t.cores.(target)

(* Phase 1: communication-out ops (PUT/BCAST/SEND/SPAWN), executed for all
   issuing cores before any core's phase 2, so that same-cycle PUT/GET and
   BCAST pairing works across cores. *)
let exec_comm_out t cs op =
  let now = t.now in
  match op with
  | Inst.Put { dir; src } -> (
    match Net.put t.net ~now ~src_core:cs.id dir (read_operand cs src) with
    | Ok () -> ()
    | Error e ->
      failwith
        (Printf.sprintf "core %d cycle %d: %s" cs.id now
           (Net.error_to_string (Net.Put_failed { src_core = cs.id; error = e }))))
  | Inst.Bcast { src } ->
    Net.bcast t.net ~now ~src_core:cs.id (read_operand cs src);
    forget_all t
  | Inst.Send { target; src } ->
    send_to t cs target (Net.Value (read_operand cs src))
  | Inst.Spawn { target; entry } ->
    let addr = Image.resolve t.prog.images.(target) entry in
    t.st.spawns <- t.st.spawns + 1;
    send_to t cs target (Net.Start addr)
  | Inst.Alu _ | Inst.Fpu _ | Inst.Cmp _ | Inst.Select _ | Inst.Load _
  | Inst.Store _ | Inst.Mov _ | Inst.Pbr _ | Inst.Br _ | Inst.Getb _
  | Inst.Get _ | Inst.Recv _ | Inst.Sleep | Inst.Mode_switch _ | Inst.Tm_begin
  | Inst.Tm_commit | Inst.Halt | Inst.Nop ->
    invalid_arg "exec_comm_out: not a communication-out op"

(* Phase 2: everything else. Returns the branch target when the bundle's
   branch is taken, -1 otherwise. *)
let exec_main t cs op =
  let now = t.now in
  let lat = Config.latency op in
  match op with
  | Inst.Alu { op = a; dst; src1; src2 } ->
    write_reg cs dst (Semantics.alu a (read_operand cs src1) (read_operand cs src2)) ~ready:(now + lat)
      ~prod:P_other;
    -1
  | Inst.Fpu { op = f; dst; src1; src2 } ->
    write_reg cs dst (Semantics.fpu f (read_operand cs src1) (read_operand cs src2)) ~ready:(now + lat)
      ~prod:P_other;
    -1
  | Inst.Cmp { op = c; dst; src1; src2 } ->
    write_reg cs dst (Semantics.cmp c (read_operand cs src1) (read_operand cs src2)) ~ready:(now + lat)
      ~prod:P_other;
    -1
  | Inst.Select { dst; pred; if_true; if_false } ->
    let v = if Semantics.truthy (read_operand cs pred) then read_operand cs if_true else read_operand cs if_false in
    write_reg cs dst v ~ready:(now + lat) ~prod:P_other;
    -1
  | Inst.Mov { dst; src } ->
    write_reg cs dst (read_operand cs src) ~ready:(now + lat) ~prod:P_other;
    -1
  | Inst.Load { dst; base; offset } ->
    let addr = read_operand cs base + read_operand cs offset in
    let ecc_before = match t.ecc with Some e -> Ecc.corrected e | None -> 0 in
    let v = Tm.read t.tm ~core:cs.id addr in
    let completion = Coherence.access t.hier ~now ~core:cs.id Coherence.Dload addr in
    let completion =
      (* A demand ECC correction adds the detect/correct/writeback penalty
         on top of whatever the hierarchy charged. *)
      match t.ecc with
      | Some e when Ecc.corrected e > ecc_before ->
        completion + t.cfg.fault.Fault.ecc_penalty
      | Some _ | None -> completion
    in
    cs.mem_busy <- imax cs.mem_busy completion;
    if completion > now + t.cfg.cache.Coherence.lat_l1 then
      cs.miss_stall_until <- imax cs.miss_stall_until completion;
    write_reg cs dst v ~ready:(imax (now + lat) completion) ~prod:P_load;
    -1
  | Inst.Store { base; offset; src } ->
    let addr = read_operand cs base + read_operand cs offset in
    Tm.write t.tm ~core:cs.id addr (read_operand cs src);
    let completion = Coherence.access t.hier ~now ~core:cs.id Coherence.Dstore addr in
    cs.mem_busy <- imax cs.mem_busy completion;
    if completion > now + t.cfg.cache.Coherence.lat_l1 then
      cs.miss_stall_until <- imax cs.miss_stall_until completion;
    -1
  | Inst.Pbr { btr; target } ->
    cs.btrs.(btr) <- Image.resolve cs.image target;
    cs.btr_ready.(btr) <- now + lat;
    -1
  | Inst.Br { btr; pred; invert } ->
    let taken =
      match pred with
      | None -> true
      | Some p ->
        let v = Semantics.truthy (read_operand cs p) in
        if invert then not v else v
    in
    if taken then cs.btrs.(btr) else -1
  | Inst.Getb { dst } -> (
    match Net.getb t.net ~now ~core:cs.id with
    | Some v ->
      write_reg cs dst v ~ready:(now + lat) ~prod:P_getb;
      -1
    | None -> failwith (Printf.sprintf "core %d cycle %d: GETB on empty broadcast" cs.id now))
  | Inst.Get { dir; dst } -> (
    match Net.get t.net ~now ~core:cs.id dir with
    | Some v ->
      write_reg cs dst v ~ready:(now + lat) ~prod:P_other;
      -1
    | None ->
      (* No paired PUT: the lock-step contract is broken (compiler or
         program bug). Wedge the core so the watchdog reports a structured
         diagnosis naming it, instead of tearing the simulator down. *)
      cs.status <- Stuck (W_get_latch dir);
      -1)
  | Inst.Recv { sender; dst; kind } -> (
    match Net.recv t.net ~now ~core:cs.id ~sender with
    | Some v ->
      forget t.cores.(sender);
      let prod =
        match kind with
        | Inst.Rv_data -> P_recv_data
        | Inst.Rv_pred -> P_recv_pred
        | Inst.Rv_sync -> P_other
      in
      write_reg cs dst v ~ready:(now + lat) ~prod;
      -1
    | None -> failwith (Printf.sprintf "core %d cycle %d: RECV raced its readiness check" cs.id now))
  | Inst.Sleep ->
    cs.status <- Asleep;
    -1
  | Inst.Mode_switch m ->
    cs.status <- At_barrier m;
    -1
  | Inst.Tm_begin ->
    if not cs.tm_serial then begin
      Tm.tx_begin t.tm ~core:cs.id;
      cs.tm_snapshot <- Some (Array.copy cs.regs, cs.pc)
    end;
    -1
  | Inst.Tm_commit ->
    if cs.tm_serial then cs.tm_serial <- false (* serial chunk done *)
    else cs.status <- At_commit;
    -1
  | Inst.Halt ->
    cs.status <- Halted;
    -1
  | Inst.Nop -> -1
  | Inst.Put _ | Inst.Bcast _ | Inst.Send _ | Inst.Spawn _ ->
    invalid_arg "exec_main: communication-out op in phase 2"

let initiate_fetch t cs =
  cs.fetch_done <-
    Coherence.access t.hier ~now:t.now ~core:cs.id Coherence.Ifetch cs.pc

(* Run one issuing core's full bundle (both phases are driven by the cycle
   loop; this is phase 2 plus pc update). *)
let finish_issue t cs (d : Image.decoded) =
  let issued_pc = cs.pc in
  (* [tm_serial] can be cleared mid-bundle by this bundle's TM_COMMIT, so
     capture it now: the serial chunk's final bundle is still re-execution
     work to the causal profiler. *)
  let was_redo = cs.tm_serial in
  let ops = d.Image.d_ops in
  let target = ref (-1) in
  for i = 0 to Array.length ops - 1 do
    if not d.Image.d_comm_out.(i) then begin
      let tgt = exec_main t cs ops.(i) in
      if tgt >= 0 then target := tgt
    end
  done;
  let next = if !target >= 0 then !target else cs.pc + 1 in
  let core_st = t.st.Stats.per_core.(cs.id) in
  core_st.busy <- core_st.busy + 1;
  core_st.bundles <- core_st.bundles + 1;
  if observed t then report t cs ~pc:issued_pc ~k:1 ~redo:was_redo Blame_busy;
  core_st.ops <- core_st.ops + d.Image.d_real_ops;
  core_st.ops_mem <- core_st.ops_mem + d.Image.d_n_mem;
  core_st.ops_comm <- core_st.ops_comm + d.Image.d_n_comm;
  core_st.ops_mul_div <- core_st.ops_mul_div + d.Image.d_n_muldiv;
  t.last_progress <- t.now;
  match cs.status with
  | Running ->
    cs.pc <- next;
    initiate_fetch t cs
  | Asleep | Halted -> ()
  | Stuck _ ->
    (* The bundle did not complete; freeze the pc for the diagnosis. *)
    ()
  | At_barrier _ | At_commit | Wait_serial ->
    (* Resume point: past this bundle (barrier ops never co-issue with a
       taken branch in generated code, but honour one if present). *)
    cs.pc <- next

(* --- Per-cycle stepping --------------------------------------------------- *)

let record_idles t cs k =
  let core_st = t.st.Stats.per_core.(cs.id) in
  core_st.idle <- core_st.idle + k;
  if observed t then
    (* A just-woken core (status already Running in [try_wake]) spent the
       cycle asleep waiting for its START — report it as such. *)
    let b_wait =
      match cs.status with
      | Halted -> W_halted
      | Running | Asleep | At_barrier _ | At_commit | Wait_serial | Stuck _ ->
        W_asleep
    in
    report t cs ~pc:cs.pc ~k ~redo:false (Blame_wait { b_wait; b_on = -1 })

let record_idle t cs = record_idles t cs 1

let try_wake t cs =
  match Net.take_start t.net ~now:t.now ~core:cs.id with
  | Some addr ->
    (* The START's sender is not named; spawns are rare enough to drop
       every memo. *)
    forget_all t;
    cs.pc <- addr;
    cs.status <- Running;
    initiate_fetch t cs;
    record_idle t cs
  | None -> record_idle t cs

(* --- Stall fast-forward ----------------------------------------------------

   When no core can change machine state this cycle, every per-cycle
   verdict is frozen until the expiry of its core's first failing
   condition (scoreboard thresholds and message arrival times are fixed
   while nothing issues, and event-driven waits cannot clear on their
   own). The step functions detect that configuration, credit the whole
   window's stalls/idles in one bulk update to the very same counters (and
   one [k]-cycle report per core to subscribers), and jump [t.now] to the
   window end — bit-identical to stepping each cycle, minus the
   wall-clock. *)

(* Last cycle of the window starting at [t.now]: the cycle before the
   earliest verdict change, clipped so Out_of_cycles and the watchdog fire
   at exactly the cycle the per-cycle loop would. [min_wake > t.now]
   always (a currently-failing condition cannot expire in the past), so
   the window is never empty. *)
let window_end t ~min_wake =
  imin (min_wake - 1)
    (imin t.cfg.Config.max_cycles (t.last_progress + t.cfg.Config.watchdog + 1))

(* [k] cycles of a running core that could issue but is held by the
   coupled-mode stall bus: blamed on the peers' dominant reason [kind], the
   lock-step overhead the coupled mode pays. *)
let hold t cs kind k =
  Stats.add_stall t.st ~core:cs.id kind k;
  if observed t then
    report t cs ~pc:cs.pc ~k ~redo:cs.tm_serial (Blame_lockstep { b_kind = kind })

(* Credit [k] cycles of the frozen configuration captured in [sc_wait]:
   exactly what [k] repetitions of the per-cycle sweep would record. A
   running core without a verdict is held on [held] (coupled mode only). *)
let bulk_credit t k ~held =
  let cores = t.cores in
  for i = 0 to Array.length cores - 1 do
    let cs = cores.(i) in
    match cs.status with
    | Halted | Asleep -> record_idles t cs k
    | Wait_serial | At_barrier _ | At_commit | Stuck _ -> stall_status t cs k
    | Running -> (
      match t.sc_wait.(i) with
      | Some w -> stall_on t cs w k
      | None -> hold t cs held k)
  done

(* Issue one decoupled core's bundle: snapshot, phase 1 (communication
   out), phase 2. *)
let issue_decoupled t cs =
  let d = decoded_at cs cs.pc in
  snapshot_sources cs d;
  if d.Image.d_has_comm_out then begin
    let ops = d.Image.d_ops in
    for i = 0 to Array.length ops - 1 do
      if d.Image.d_comm_out.(i) then exec_comm_out t cs ops.(i)
    done
  end;
  finish_issue t cs d

let decoupled_core_step t cs =
  match cs.status with
  | Halted -> record_idle t cs
  | Asleep -> try_wake t cs
  | Wait_serial | At_barrier _ | At_commit | Stuck _ -> stall_status t cs 1
  | Running -> (
    match blocker t cs with
    | Some w -> stall_on t cs w 1
    | None -> issue_decoupled t cs)

(* Decoupled: each core progresses independently, in core order — a core's
   issue is visible to later cores' checks within the same cycle. *)
let decoupled_step t =
  let cores = t.cores in
  let n = Array.length cores in
  if not t.ff_active then
    for i = 0 to n - 1 do
      decoupled_core_step t cores.(i)
    done
  else begin
    (* Probe for a fast-forward window: per-core verdicts in core order,
       stopping at the first core that would change machine state this
       cycle. [blocker] is effect-free, so the probed verdicts for the
       frozen prefix are exactly what the sequential sweep computes. *)
    let live = ref (-1) in
    let min_wake = ref max_int in
    let i = ref 0 in
    while !live < 0 && !i < n do
      let cs = cores.(!i) in
      (match cs.status with
      | Halted | Wait_serial | At_barrier _ | At_commit | Stuck _ ->
        t.sc_wait.(!i) <- None
      | Asleep ->
        t.sc_wait.(!i) <- None;
        let w = Net.next_start_ready t.net ~core:cs.id in
        if w <= t.now then live := !i
        else if w < !min_wake then min_wake := w
      | Running -> (
        t.wake <- max_int;
        match blocker t cs with
        | None -> live := !i
        | Some _ as b ->
          t.sc_wait.(!i) <- b;
          if t.wake < !min_wake then min_wake := t.wake));
      if !live < 0 then incr i
    done;
    if !live < 0 then begin
      let e = window_end t ~min_wake:!min_wake in
      let k = e - t.now + 1 in
      if k > 1 then begin
        t.st.decoupled_cycles <- t.st.decoupled_cycles + (k - 1);
        t.now <- e
      end;
      (* Every running core in the window is blocked: none is held. *)
      bulk_credit t k ~held:Stats.Sync
    end
    else begin
      (* Replay the frozen prefix for this one cycle (an asleep prefix core
         has no deliverable START, so its [try_wake] is just an idle), then
         run the state-changing sweep from the live core onward. *)
      for j = 0 to !live - 1 do
        let cs = cores.(j) in
        match cs.status with
        | Halted | Asleep -> record_idle t cs
        | Wait_serial | At_barrier _ | At_commit | Stuck _ -> stall_status t cs 1
        | Running -> (
          match t.sc_wait.(j) with
          | Some w -> stall_on t cs w 1
          | None -> assert false)
      done;
      for j = !live to n - 1 do
        decoupled_core_step t cores.(j)
      done
    end
  end

(* Coupled: lock-step with the stall bus — either every running core
   issues, or none does. One indexed scan computes the verdicts (and
   checks the status invariant off the issue path); the issue path then
   runs its three passes (snapshot, communication-out, main) so VLIW
   read-before-write and same-cycle PUT/GET pairing hold across cores. *)
let coupled_step t =
  let cores = t.cores in
  let n = Array.length cores in
  let n_blocked = ref 0 in
  let has_d = ref false and has_i = ref false in
  let first_kind = ref Stats.Sync in
  let min_wake = ref max_int in
  for i = 0 to n - 1 do
    let cs = cores.(i) in
    t.sc_waiting.(i) <- false;
    match cs.status with
    | Running -> (
      t.wake <- max_int;
      match blocker t cs with
      | None -> t.sc_wait.(i) <- None
      | Some w as b ->
        t.sc_wait.(i) <- b;
        let k = stall_of_wait w in
        if !n_blocked = 0 then first_kind := k;
        incr n_blocked;
        (match k with
        | Stats.D_stall -> has_d := true
        | Stats.I_stall -> has_i := true
        | Stats.Lat_stall | Stats.Recv_data | Stats.Recv_pred | Stats.Sync ->
          ());
        if t.wake < !min_wake then min_wake := t.wake)
    | At_barrier _ | Stuck _ ->
      t.sc_wait.(i) <- None;
      t.sc_waiting.(i) <- true
    | Asleep | Halted | At_commit | Wait_serial ->
      failwith
        (Printf.sprintf "core %d in unexpected state during coupled mode" cs.id)
  done;
  (* Group stall: a core with its own reason records it; the rest are held
     on the peers' dominant reason (D over I over the first in core order). *)
  let dominant =
    if !has_d then Stats.D_stall else if !has_i then Stats.I_stall else !first_kind
  in
  let bulked = !n_blocked > 0 && t.ff_active in
  if bulked then begin
    (* Lock-step group-stall window: nothing issues while any running core
       is blocked, so the blocked cores' verdicts, the dominant kind and the
       held cores' "could issue" are all frozen until the blocked cores'
       earliest wake. Waiting cores take their Sync cycles in the same bulk
       update. *)
    let e = window_end t ~min_wake:!min_wake in
    let k = e - t.now + 1 in
    if k > 1 then begin
      t.st.coupled_cycles <- t.st.coupled_cycles + (k - 1);
      t.now <- e
    end;
    bulk_credit t k ~held:dominant
  end
  else if !n_blocked > 0 then
    for i = 0 to n - 1 do
      let cs = cores.(i) in
      if is_running cs then
        match t.sc_wait.(i) with
        | Some w -> stall_on t cs w 1
        | None -> hold t cs dominant 1
    done
  else begin
    (* Phase 0: snapshot every issuing core's sources before any effects. *)
    for i = 0 to n - 1 do
      let cs = cores.(i) in
      if is_running cs then snapshot_sources cs (decoded_at cs cs.pc)
    done;
    (* Phase 1: communication-out for all cores, so same-cycle PUT/GET and
       BCAST pairing works regardless of core order. *)
    for i = 0 to n - 1 do
      let cs = cores.(i) in
      if is_running cs then begin
        let d = decoded_at cs cs.pc in
        if d.Image.d_has_comm_out then begin
          let ops = d.Image.d_ops in
          for j = 0 to Array.length ops - 1 do
            if d.Image.d_comm_out.(j) then exec_comm_out t cs ops.(j)
          done
        end
      end
    done;
    (* Phase 2. *)
    for i = 0 to n - 1 do
      let cs = cores.(i) in
      if is_running cs then finish_issue t cs (decoded_at cs cs.pc)
    done
  end;
  (* Cores already waiting at the exit barrier count sync stalls. Only
     those waiting when the cycle began: a core that issued the barrier
     bundle this very cycle already recorded that cycle as busy. (The bulk
     path credited them inside [bulk_credit].) *)
  if not bulked then
    for i = 0 to n - 1 do
      if t.sc_waiting.(i) then stall_status t cores.(i) 1
    done

(* --- Fault injection ------------------------------------------------------ *)

(* One injection opportunity per cycle: maybe flip a bit somewhere in data
   memory, and maybe freeze each running core for [stall_cycles]. Message
   faults are rolled by the network at each transmission, and spurious TM
   aborts at each commit round. *)
let inject_faults t =
  match t.inj with
  | None -> ()
  | Some f ->
    if Fault.roll_flip f then begin
      let addr = Fault.pick_addr f ~size:(Memory.size t.mem) in
      Memory.corrupt t.mem addr ~flip:(Fault.flip_bit f)
    end;
    Array.iter
      (fun cs ->
        if is_running cs && Fault.roll_stall f then
          cs.stall_until <-
            imax cs.stall_until (t.now + t.cfg.fault.Fault.stall_cycles))
      t.cores

(* --- End-of-cycle resolution ---------------------------------------------- *)

(* The end-of-cycle checks below run every cycle: they scan the cores with
   toplevel recursions, which unlike local ones build no closure. *)
let rec all_at_barrier cores i =
  i >= Array.length cores
  ||
  match cores.(i).status with
  | At_barrier _ -> all_at_barrier cores (i + 1)
  | Running | Asleep | Halted | At_commit | Wait_serial | Stuck _ -> false

let resolve_mode_barrier t =
  if all_at_barrier t.cores 0 then begin
    let target =
      match t.cores.(0).status with
      | At_barrier m -> m
      | Running | Asleep | Halted | At_commit | Wait_serial | Stuck _ ->
        assert false
    in
    Array.iter
      (fun cs ->
        (match cs.status with
        | At_barrier m when m = target -> ()
        | At_barrier _ ->
          failwith "mode-switch barrier with disagreeing target modes"
        | Running | Asleep | Halted | At_commit | Wait_serial | Stuck _ ->
          assert false);
        cs.status <- Running;
        initiate_fetch t cs)
      t.cores;
    t.mode <- target;
    t.st.mode_switches <- t.st.mode_switches + 1;
    trace t (Trace.Mode_change { cycle = t.now; mode = target });
    t.last_progress <- t.now
  end

let rollback t cs =
  match cs.tm_snapshot with
  | None -> failwith (Printf.sprintf "core %d: TM rollback without snapshot" cs.id)
  | Some (regs, pc) ->
    cs.regs <- Array.copy regs;
    cs.ready <- Array.make (Array.length regs) t.now;
    cs.prod <- Array.make (Array.length regs) P_other;
    cs.pc <- pc;
    cs.tm_serial <- true

(* Shared recovery tail for real conflicts and spurious aborts: roll the
   aborted cores back to their chunk snapshots and re-execute them serially
   in core order. *)
let abort_and_serialize t aborted =
  List.iter (fun c -> rollback t t.cores.(c)) aborted;
  (match aborted with
  | [] -> assert false
  | head :: rest ->
    let cs = t.cores.(head) in
    cs.status <- Running;
    initiate_fetch t cs;
    trace t (Trace.Serial_start { cycle = t.now; core = head });
    List.iter (fun c -> t.cores.(c).status <- Wait_serial) rest);
  t.serial_queue <- aborted

let release_committed t committed =
  List.iter
    (fun c ->
      let cs = t.cores.(c) in
      cs.status <- Running;
      cs.tm_snapshot <- None;
      initiate_fetch t cs)
    committed

(* A TM round resolves only when EVERY core is in a transaction and waiting
   at TM_COMMIT. This enforces the paper's in-order chunk commit: chunk i+1
   can never commit before chunk i, even if its core raced ahead, so the
   codegen contract is that every DOALL round runs one (possibly empty)
   chunk on every core. *)
let rec all_at_commit t c =
  c >= Array.length t.cores
  ||
  match t.cores.(c).status with
  | At_commit -> Tm.in_tx t.tm ~core:c && all_at_commit t (c + 1)
  | Running | Asleep | Halted | At_barrier _ | Wait_serial | Stuck _ -> false

let resolve_tm_round t =
  (* Test readiness without building the participant list; it is only
     materialised once a round actually resolves. *)
  if all_at_commit t 0 then begin
    let participants = List.init t.cfg.n_cores (fun c -> c) in
    t.st.tm_rounds <- t.st.tm_rounds + 1;
    t.last_progress <- t.now;
    let spurious =
      match t.inj with
      | Some f when Fault.roll_tm_abort f ->
        Some (Fault.victim f ~n:t.cfg.n_cores)
      | Some _ | None -> None
    in
    match spurious with
    | Some v -> (
      (* A corrupted speculative chunk is indistinguishable from a real
         conflict to the recovery machinery: commit the clean prefix, abort
         the victim and everything after it, and reuse the serial
         re-execution path. The prefix commit can itself surface a real
         conflict, in which case the earlier core wins. *)
      let prefix = List.filter (fun c -> c < v) participants in
      let first =
        match if prefix = [] then `All_committed else Tm.commit_round t.tm ~cores:prefix with
        | `All_committed -> v
        | `Conflict_at c ->
          t.st.tm_conflicts <- t.st.tm_conflicts + 1;
          c
      in
      List.iter
        (fun c -> if c >= v then Tm.abort t.tm ~core:c)
        participants;
      trace t (Trace.Tm_round { cycle = t.now; conflict_at = Some first });
      let committed, aborted = List.partition (fun c -> c < first) participants in
      release_committed t committed;
      abort_and_serialize t aborted)
    | None -> (
      match Tm.commit_round t.tm ~cores:participants with
      | `All_committed ->
        trace t (Trace.Tm_round { cycle = t.now; conflict_at = None });
        release_committed t participants
      | `Conflict_at first ->
        t.st.tm_conflicts <- t.st.tm_conflicts + 1;
        trace t (Trace.Tm_round { cycle = t.now; conflict_at = Some first });
        let committed, aborted = List.partition (fun c -> c < first) participants in
        release_committed t committed;
        abort_and_serialize t aborted)
  end

let resolve_serial_queue t =
  match t.serial_queue with
  | [] -> ()
  | head :: rest ->
    let cs = t.cores.(head) in
    (* The head finished its serial re-execution when its Tm_commit cleared
       the serial flag. *)
    let waiting =
      match cs.status with
      | Wait_serial -> true
      | Running | Asleep | Halted | At_barrier _ | At_commit | Stuck _ -> false
    in
    if (not cs.tm_serial) && not waiting then begin
      t.serial_queue <- rest;
      match rest with
      | [] -> ()
      | next :: _ ->
        let ncs = t.cores.(next) in
        ncs.status <- Running;
        initiate_fetch t ncs;
        trace t (Trace.Serial_start { cycle = t.now; core = next });
        t.last_progress <- t.now
    end

let rec all_parked cores i =
  i >= Array.length cores
  ||
  match cores.(i).status with
  | Halted | Asleep -> all_parked cores (i + 1)
  | Running | At_barrier _ | At_commit | Wait_serial | Stuck _ -> false

let finished t =
  (match t.cores.(0).status with
  | Halted -> true
  | Running | Asleep | At_barrier _ | At_commit | Wait_serial | Stuck _ -> false)
  && all_parked t.cores 1 && Net.idle t.net

(* --- Structured watchdog diagnosis ---------------------------------------- *)

let stall_kind_name = Stats.stall_kind_label

let wait_to_string = function
  | W_reg k -> Printf.sprintf "operand in flight (%s)" (stall_kind_name k)
  | W_ifetch -> "instruction fetch in flight"
  | W_dmem -> "memory unit busy"
  | W_btr -> "branch-target register in flight"
  | W_recv { sender; kind } ->
    Printf.sprintf "RECV from core %d (%s): nothing deliverable" sender
      (stall_kind_name kind)
  | W_getb -> "GETB: broadcast not yet visible"
  | W_send_full dst -> Printf.sprintf "SEND: channel to core %d full" dst
  | W_get_latch dir ->
    let d =
      match dir with
      | Inst.North -> "north"
      | Inst.South -> "south"
      | Inst.East -> "east"
      | Inst.West -> "west"
    in
    Printf.sprintf "GET %s on an empty latch (no paired PUT)" d
  | W_stall_fault -> "injected stall fault"
  | W_barrier m -> Format.asprintf "at mode barrier -> %a" Inst.pp_mode m
  | W_commit -> "at TM commit, waiting for the round"
  | W_serial -> "waiting for the serial-re-execution token"
  | W_asleep -> "asleep"
  | W_halted -> "halted"

let core_wait t cs =
  match cs.status with
  | Running -> blocker t cs
  | Stuck w -> Some w
  | Asleep -> Some W_asleep
  | Halted -> Some W_halted
  | At_barrier m -> Some (W_barrier m)
  | At_commit -> Some W_commit
  | Wait_serial -> Some W_serial

let diagnose t =
  let d_cores =
    Array.map
      (fun cs ->
        {
          d_core = cs.id;
          d_pc = cs.pc;
          d_wait = core_wait t cs;
          d_bundle =
            Format.asprintf "%a" Bundle.pp
              (if cs.pc < Image.length cs.image then Image.fetch cs.image cs.pc
               else []);
        })
      t.cores
  in
  let d_blame =
    Array.to_list d_cores
    |> List.filter_map (fun d ->
           match d.d_wait with
           | Some ((W_asleep | W_halted) as _w) -> None
           | Some w ->
             Option.map (fun b -> (d.d_core, b)) (blame_of t t.cores.(d.d_core) w)
           | None -> None)
    |> function
    | [] -> None
    | edge :: _ -> Some edge
  in
  {
    d_cycle = t.now;
    d_last_progress = t.last_progress;
    d_mode = t.mode;
    d_cores;
    d_queue = Net.in_flight_summary t.net;
    d_blame;
  }

let pp_diagnosis ppf d =
  Format.fprintf ppf "no progress since cycle %d (now %d), mode %a@,"
    d.d_last_progress d.d_cycle Inst.pp_mode d.d_mode;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  core %d: pc=%d %s bundle={%s}@," c.d_core c.d_pc
        (match c.d_wait with
        | Some w -> wait_to_string w
        | None -> "issueable?")
        c.d_bundle)
    d.d_cores;
  (match d.d_queue with
  | [] -> ()
  | q ->
    Format.fprintf ppf "  in flight:@,";
    List.iter
      (fun (src, dst, descr) ->
        Format.fprintf ppf "    %d -> %d: %s@," src dst descr)
      q);
  match d.d_blame with
  | None -> ()
  | Some (blocked, blamed) ->
    Format.fprintf ppf "  blame: core %d is waiting on core %d@," blocked blamed

let diagnosis_to_string d = Format.asprintf "@[<v>%a@]" pp_diagnosis d

let outcome_to_string = function
  | Finished -> "completed"
  | Out_of_cycles -> "exceeded the cycle cap"
  | Deadlock d -> "deadlock:\n" ^ diagnosis_to_string d
  | Fault_limit d -> "fault limit reached:\n" ^ diagnosis_to_string d
  | Stopped d -> "sanitizer stopped the machine:\n" ^ diagnosis_to_string d

let outcome_label = function
  | Finished -> "completed"
  | Out_of_cycles -> "cycle cap"
  | Deadlock _ -> "deadlock"
  | Fault_limit _ -> "fault limit"
  | Stopped _ -> "sanitizer stop"

(* --- Run loop -------------------------------------------------------------- *)

let finalize_counters t =
  let ns = Net.stats t.net in
  t.st.net_retries <- ns.Net.retries;
  t.st.net_nacks <- ns.Net.nacks;
  (match t.inj with
  | None -> ()
  | Some f ->
    let c = Fault.counters f in
    t.st.faults_injected <- c.Fault.injected;
    t.st.msgs_dropped <- c.Fault.msgs_dropped;
    t.st.msgs_corrupted <- c.Fault.msgs_corrupted;
    t.st.spurious_aborts <- c.Fault.spurious_aborts;
    t.st.stall_faults <- c.Fault.stall_faults);
  match t.ecc with
  | None -> ()
  | Some e ->
    t.st.ecc_corrected <- Ecc.corrected e;
    t.st.ecc_scrubbed <- Ecc.scrubbed e;
    t.st.flips_masked <- Ecc.masked e

let run t =
  (* Fast-forward needs every skipped cycle to be observationally dead: an
     [every_cycle] subscriber or per-cycle randomness (fault injector)
     forces the cycle-by-cycle path. Other subscribers take the same
     core-cycle reports in bulk. *)
  t.ff_active <-
    t.cfg.Config.fast_forward && Option.is_none t.inj && not t.every_cycle;
  let outcome = ref None in
  while match !outcome with None -> true | Some _ -> false do
    t.now <- t.now + 1;
    if t.now > t.cfg.max_cycles then outcome := Some Out_of_cycles
    else begin
      let c0 = t.now in
      inject_faults t;
      Net.service t.net ~now:t.now;
      (match t.mode with
      | Inst.Coupled ->
        t.st.coupled_cycles <- t.st.coupled_cycles + 1;
        coupled_step t
      | Inst.Decoupled ->
        t.st.decoupled_cycles <- t.st.decoupled_cycles + 1;
        decoupled_step t);
      resolve_mode_barrier t;
      resolve_tm_round t;
      resolve_serial_queue t;
      (* The step may have fast-forwarded: report the whole covered window.
         [c0 = t.now] when it stepped one cycle. *)
      if observed t then emit t (Window { from = c0; upto = t.now });
      if t.stop_requested then outcome := Some (Stopped (diagnose t))
      else if finished t then outcome := Some Finished
      else if (match t.inj with Some f -> Fault.exceeded f | None -> false)
      then outcome := Some (Fault_limit (diagnose t))
      else if t.now - t.last_progress > t.cfg.watchdog then
        outcome := Some (Deadlock (diagnose t))
    end
  done;
  t.st.cycles <- t.now;
  (* End-of-run scrub: correct any injected flip that was never read, so the
     architectural image (and its checksum) matches the fault-free run. *)
  Memory.scrub t.mem;
  finalize_counters t;
  let outcome = match !outcome with Some o -> o | None -> assert false in
  { outcome; cycles = t.now; checksum = Memory.checksum t.mem }
