(** The sweep engine under the CLI's whole-suite commands ([run], [check],
    [analyze] and [blame] with [--all], and the one-program [check] and
    [blame]).

    A sweep is a list of named targets and a cell function. The engine runs
    the cells on the work-stealing pool ({!Voltron_pool.Pool}), writes each
    cell's stdout chunk and then its stderr lines in cell order through the
    completion frontier, and sums the cells' failure counts. Because every
    cell renders into its own record and emission follows cell order, the
    transcript is byte-identical for every [jobs] value.

    A cell that raises becomes a failing cell: one stderr line
    [<target>: internal error: <exn>], one failure, no value. The other
    cells still run and emit. *)

val targets : scale:float -> (string * Voltron_ir.Hir.program) list
(** The 25 suite programs in {!Voltron_workloads.Suite.all} order, then
    the three micro kernels, built at [scale]. *)

val program_of_name :
  string -> scale:float -> (Voltron_ir.Hir.program, string) result
(** A suite program or a micro kernel ([micro:gsm_llp],
    [micro:gzip_strands], [micro:gsm_ilp]) by name; [Error] carries the
    message for an unknown name. *)

val jobs : int -> int
(** Worker budget from a [-j] value: [0] means
    {!Voltron_pool.Pool.default_jobs}, anything else is itself. *)

type 'a cell = {
  out : string;  (** the cell's stdout chunk *)
  errs : string list;  (** the cell's stderr lines, without newlines *)
  failures : int;
  value : 'a;
}

type sinks = { on_out : string -> unit; on_err : string -> unit }
(** Where the engine writes: [on_out] gets each cell's chunk, [on_err] each
    stderr line. Calls are serialized and in cell order. *)

val stdio : sinks
(** Chunks to stdout (flushed per cell), lines to stderr. *)

val run :
  sinks:sinks ->
  jobs:int ->
  (string -> 'p -> 'a cell) ->
  (string * 'p) list ->
  'a list * int
(** [run ~sinks ~jobs cell targets] runs [cell name p] for every target on
    up to [jobs] domains ([0] as in {!jobs}) and returns the values of the
    cells that did not raise, in target order, and the summed failure
    count. *)
