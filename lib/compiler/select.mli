(** Per-region parallelism selection (paper §4.2).

    The hybrid strategy follows the paper's order: statistical/proven
    DOALL loops first (most efficient — no communication in the loop
    body), then DSWP when a balanced pipeline with estimated speedup above
    1.25 exists, then fine-grain strands for regions dominated by cache
    misses, and coupled-mode ILP otherwise. Tiny glue regions stay
    sequential on the master.

    Forced modes compile every region with one family, for the paper's
    per-type evaluations (Figs. 10/11):
    - [`Ilp]: coupled-mode BUG everywhere;
    - [`Tlp]: DSWP where profitable, else eBUG strands (both decoupled);
    - [`Llp]: DOALL where legal, sequential elsewhere;
    - [`Seq]: everything sequential (the single-core baseline). *)

type choice = [ `Hybrid | `Ilp | `Tlp | `Llp | `Seq ]

val choice_name : choice -> string
(** ["seq"], ["ilp"], ["tlp"], ["llp"] or ["hybrid"]. *)

val choice_of_string : string -> choice option
(** The inverse of {!choice_name}; [None] for any other string. *)

type planned_region = {
  pr_name : string;
  pr_stmts : Voltron_ir.Hir.stmt list;
  pr_strategy : Codegen.strategy;
  pr_weight : int;  (** dynamic statement count (profile) *)
}

val doall_plan_of_region :
  machine:Voltron_machine.Config.t ->
  profile:Voltron_analysis.Profile.t ->
  Voltron_ir.Hir.stmt list ->
  Codegen.doall_plan option
(** The region's DOALL decomposition (prefix / loop / suffix) when legal
    and profitable, applying the prefix/suffix safety rules (see source). *)

val lower_region : Voltron_ir.Hir.stmt list -> Voltron_ir.Cfg.t
(** A throwaway lowering of a region against a synthetic array layout, for
    estimates only: its fresh registers and labels are never emitted, and
    base addresses do not match the real program's. *)

val dswp_estimate :
  machine:Voltron_machine.Config.t -> Voltron_ir.Hir.stmt list -> float
(** Estimated DSWP speedup for the region (1.0 when no pipeline exists). *)

val miss_fraction :
  profile:Voltron_analysis.Profile.t -> Voltron_ir.Hir.stmt list -> float
(** Estimated fraction of the region's serial time spent in cache-miss
    stalls (drives the strands-vs-ILP decision, §4.2). *)

val plan :
  machine:Voltron_machine.Config.t ->
  profile:Voltron_analysis.Profile.t ->
  choice ->
  Voltron_ir.Hir.program ->
  planned_region list

val strategy_name : Codegen.strategy -> string
