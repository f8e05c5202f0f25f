(** The Voltron multicore cycle simulator.

    Executes a {!Voltron_isa.Program.t} on [n] in-order VLIW cores joined by
    the dual-mode scalar operand network, with coherent caches and
    transactional memory. Core 0 starts at address 0 of its image; the
    other cores start asleep, waiting for SPAWN. The machine starts in
    decoupled mode.

    {b Execution model.} Each core is an interlocked (stall-on-use) VLIW:
    the compiler schedules for the static latencies in {!Config.latency}
    and a scoreboard stalls the core when a source operand, the memory
    unit, an instruction fetch, or a network value is not ready. Stall
    cycles are attributed per Fig. 12 (I-, D-, data-receive,
    predicate-receive, synchronisation). In coupled mode the 1-bit stall
    bus makes every stall a group stall: no core issues unless all can
    (§3.2). Architectural data lives in flat memory updated at issue time;
    caches model timing only (DESIGN.md §5).

    {b Transactions.} A TM commit round resolves when {e every} core is in
    a transaction and waiting at TM_COMMIT — the in-order chunk-commit rule,
    so the DOALL codegen gives every core one (possibly empty) chunk per
    round. Chunks commit in core order, and on a conflict
    the violating core and its successors roll back (registers restored
    from the TM_BEGIN snapshot — standing in for the paper's
    compiler-generated recovery code) and re-execute serially.

    {b Faults.} With a nonzero rate in {!Config.t.fault} the machine runs a
    seeded injector (DESIGN.md "Fault model & recovery"): queue-mode
    messages can be dropped or corrupted (recovered by the network's
    ack/timeout/retry protocol), memory words can be bit-flipped (detected
    and corrected by the ECC model, with an end-of-run scrub so the final
    checksum still verifies), TM rounds can spuriously abort (recovered by
    the existing rollback + serial re-execution), and cores can suffer
    transient stall faults. When the injected-fault count reaches
    [degrade_threshold], the run stops with {!Fault_limit} so the caller
    can retry in a simpler execution mode. *)

type t

(** Why a core cannot make progress — the vocabulary of the watchdog's
    structured diagnosis. *)
type wait =
  | W_reg of Stats.stall_kind  (** scoreboard: source operand in flight *)
  | W_ifetch
  | W_dmem
  | W_btr  (** branch-target register still being written *)
  | W_recv of { sender : int; kind : Stats.stall_kind }
  | W_getb
  | W_send_full of int  (** receive queue of that core at capacity *)
  | W_get_latch of Voltron_isa.Inst.dir  (** GET with no paired PUT *)
  | W_stall_fault  (** injected transient stall in effect *)
  | W_barrier of Voltron_isa.Inst.mode
  | W_commit
  | W_serial
  | W_asleep
  | W_halted

val wait_to_string : wait -> string

type core_diag = {
  d_core : int;
  d_pc : int;
  d_wait : wait option;  (** [None]: the core could issue (not the culprit) *)
  d_bundle : string;  (** rendering of the bundle the core is stuck on *)
}

type diagnosis = {
  d_cycle : int;
  d_last_progress : int;
  d_mode : Voltron_isa.Inst.mode;
  d_cores : core_diag array;
  d_queue : (int * int * string) list;
      (** in-flight messages: src, dst, payload + delivery state *)
  d_blame : (int * int) option;
      (** the first blocked core whose wait names another core, and that
          core: the edge to start a hang investigation from *)
}

val pp_diagnosis : Format.formatter -> diagnosis -> unit
val diagnosis_to_string : diagnosis -> string

type outcome =
  | Finished
  | Out_of_cycles
  | Deadlock of diagnosis  (** watchdog fired: structured wait-state dump *)
  | Fault_limit of diagnosis
      (** fault injection crossed [degrade_threshold]; the caller should
          degrade to a simpler execution mode and re-run *)
  | Stopped of diagnosis
      (** a subscriber called {!request_stop} — the runtime sanitizer
          halting the machine at the cycle a violation was detected *)

val outcome_to_string : outcome -> string
(** Why the run ended, with the structured diagnosis when there is one —
    the text failure messages and fuzz reproducers print. *)

val outcome_label : outcome -> string
(** A short label (["completed"], ["cycle cap"], ["deadlock"],
    ["fault limit"], ["sanitizer stop"]) for one-line sweep rows and
    JSON. *)

type result = {
  outcome : outcome;
  cycles : int;
  checksum : int;  (** final data-memory checksum (the oracle value) *)
}

val create : Config.t -> Voltron_isa.Program.t -> t
(** Raises [Invalid_argument] if the program's core count does not match
    the configuration, or a bundle exceeds the configured widths. *)

val run : t -> result

val memory : t -> Voltron_mem.Memory.t
val stats : t -> Stats.t
val coherence : t -> Voltron_mem.Coherence.t
val network : t -> Voltron_net.Operand_network.t
val tm : t -> Voltron_mem.Tm.t

val now : t -> int
(** Current simulated cycle (valid mid-run, e.g. from a subscriber; equals
    [Stats.cycles] once the run finishes). *)

val mode : t -> Voltron_isa.Inst.mode
(** Current execution mode. *)

val pc : t -> core:int -> int
(** That core's current pc — the blame recorder's region lookup key. *)

val config : t -> Config.t
(** The configuration the machine was created with. *)

val reg : t -> core:int -> int -> int
(** Inspect a register after (or during) a run — used by tests. *)

val stall_of_wait : wait -> Stats.stall_kind
(** The Fig. 12 stall bucket a wait is counted in. *)

(** {1 Observation bus}

    Every observer of a run — tracer, per-region attribution, causal
    profiler, interval sampler, runtime sanitizer, test hooks — is a
    subscriber on one list. Each event goes to every subscriber, in
    subscription order. Subscribers are passive: they may read the machine
    and its subsystems but must not mutate them, with the one sanctioned
    exception of {!request_stop}.

    {b The fast-forward rule.} Stall fast-forward ({!Config.t.fast_forward})
    is decided once, when {!run} starts: it is on unless the configuration
    turns it off, a fault injector is active, or some subscriber declared
    [~every_cycle:true]. So an [every_cycle] subscriber sees every cycle one
    at a time — its [Window] events always have [from = upto] and its
    [Core_cycles] events [k = 1]. Any other subscriber must accept bulk
    reports: a fast-forward jump arrives as one [Window] spanning it and
    one [Core_cycles] event per core with [k] equal to its length.

    With no subscriber (the default) each of the machine's event sites
    costs one branch and allocates nothing. *)

(** One core-cycle (or [k] identical core-cycles) of one core. *)
type blame_event =
  | Blame_busy  (** the core issued a bundle *)
  | Blame_wait of {
      b_wait : wait;
      b_on : int;  (** the peer core the wait resolves to, or -1 *)
    }
      (** [W_asleep] and [W_halted] are idle cycles; every other wait is a
          stall counted as {!stall_of_wait} *)
  | Blame_lockstep of { b_kind : Stats.stall_kind }
      (** coupled mode only: the core could issue but the stall bus held it
          for a peer whose dominant stall reason is [b_kind] *)

type event =
  | Core_cycles of {
      core : int;
      pc : int;  (** the issue pc for {!Blame_busy}, the stuck pc otherwise *)
      k : int;
      redo : bool;  (** serial TM re-execution work *)
      what : blame_event;
    }
      (** Every simulated core-cycle is reported exactly once, in the
          machine mode ({!mode}) it was spent in. *)
  | Window of { from : int; upto : int }
      (** End of one run-loop iteration, which covered the closed cycle
          interval [\[from, upto\]]: [from = upto] on an ordinary cycle,
          [from < upto] across a fast-forward jump. The machine state is
          the state at the end of cycle [upto]. *)
  | Traced of Trace.event
      (** The machine-level trace events with no other form on the bus:
          mode changes, TM rounds and serial re-execution starts. *)
  | Access of {
      core : int;
      completion : int;
      kind : Voltron_mem.Coherence.kind;
      addr : int;
    }  (** a cache access, after its coherence transition landed *)
  | Tm_event of Voltron_mem.Tm.event
  | Net_event of Voltron_net.Operand_network.event

val subscribe : t -> ?every_cycle:bool -> (event -> unit) -> unit
(** Add a subscriber. Call before {!run}. [every_cycle] (default [false])
    turns stall fast-forward off for the run (see the rule above). *)

val set_on_window : t -> (from:int -> upto:int -> unit) -> unit
(** [subscribe] for [Window] events only, without [every_cycle]. *)

val set_tracer : t -> Trace.t -> unit
(** Record the run into a tracer: an [every_cycle] subscriber that renders
    issues, stalls, sends, receives, spawns, mode changes, TM rounds and
    serial starts as {!Trace.event}s. *)

val request_stop : t -> unit
(** Ask the run loop to stop at the end of the current cycle with a
    {!Stopped} outcome carrying the usual structured diagnosis. Callable
    from any subscriber; idempotent. *)
