(** Operation partitioning across cores.

    [bug] is the Bottom-Up Greedy multicluster partitioner (paper §4.1,
    after Ellis's Bulldog): operations are visited in critical-path
    priority order and greedily placed on the core minimising the
    estimated completion time, accounting for inter-core move latency.

    [ebug] is the paper's Enhanced BUG for decoupled strands: on top of
    BUG it (a) adds edge weights that keep likely-missing loads with their
    consumers, (b) hard-clusters memory operations that may ever touch the
    same address (so no cross-core memory synchronisation is needed), and
    (c) penalises cores already holding a majority of memory operations to
    balance local caches.

    [dswp] builds the region dependence graph including loop-carried
    edges, condenses strongly-connected components, and splits the acyclic
    condensation into pipeline stages of balanced weight (paper §4.1,
    after Ottoni et al.); all cross-core value flow runs forward, so the
    queue-mode network acts as pipeline buffering.

    All partitioners leave [replicable] induction ops unassigned (core -1
    = every core). *)

type t = {
  core_of : int array;  (** node index -> core id; -1 = replicated on all *)
  participants : int list;  (** sorted, always contains 0 *)
}

val bug :
  n_cores:int ->
  comm_latency:int ->
  dg:Voltron_analysis.Depgraph.t ->
  cfg:Voltron_ir.Cfg.t ->
  t

val ebug :
  n_cores:int ->
  comm_latency:int ->
  dg:Voltron_analysis.Depgraph.t ->
  cfg:Voltron_ir.Cfg.t ->
  memdep:Voltron_analysis.Memdep.t ->
  profile:Voltron_analysis.Profile.t ->
  t

val dswp :
  n_cores:int ->
  dg:Voltron_analysis.Depgraph.t ->
  cfg:Voltron_ir.Cfg.t ->
  memdep:Voltron_analysis.Memdep.t ->
  (t * float) option
(** [Some (partition, estimated_speedup)] when at least two stages emerge;
    [None] when the region is one big recurrence. *)

val solo : core:int -> dg:Voltron_analysis.Depgraph.t -> t
(** Every operation on [core], the only participant. *)
