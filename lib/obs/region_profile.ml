module Stats = Voltron_machine.Stats
module Machine = Voltron_machine.Machine
module Config = Voltron_machine.Config
module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Codegen = Voltron_compiler.Codegen
module Select = Voltron_compiler.Select
module Driver = Voltron_compiler.Driver
module Table = Voltron_util.Table

(* Core-cycles of one (region, mode) pair, summed over cores. *)
type cell = {
  mutable busy : int;
  mutable idle : int;
  stalls : int array;  (** indexed by [Stats.stall_kind_index] *)
}

type t = {
  names : string array;  (** one per region; last is ["<other>"] *)
  strategies : string array;
  cells : cell array array;  (** [region][mode (0 coupled, 1 decoupled)] *)
}

type row = {
  r_region : string;
  r_strategy : string;
  r_mode : Inst.mode;
  r_busy : int;
  r_stalls : int array;
  r_idle : int;
  r_cycles : int;
}

let lookup (compiled : Driver.compiled) =
  let extents = Array.of_list compiled.Driver.region_extents in
  let plan = Array.of_list compiled.Driver.plan in
  assert (Array.length extents = Array.length plan);
  let n_regions = Array.length extents + 1 in
  let other = n_regions - 1 in
  let images = compiled.Driver.executable.Program.images in
  let lookups =
    Array.map (fun img -> Array.make (max 1 (Image.length img)) other) images
  in
  Array.iteri
    (fun r ext ->
      Array.iteri
        (fun core (lo, hi) ->
          let l = lookups.(core) in
          for pc = lo to min hi (Array.length l) - 1 do
            l.(pc) <- r
          done)
        ext.Codegen.re_ranges)
    extents;
  let region_of ~core ~pc =
    if core < 0 || core >= Array.length lookups then other
    else
      let l = lookups.(core) in
      if pc >= 0 && pc < Array.length l then l.(pc) else other
  in
  let names =
    Array.append (Array.map (fun e -> e.Codegen.re_name) extents) [| "<other>" |]
  in
  let strategies =
    Array.append
      (Array.map
         (fun (pr : Select.planned_region) ->
           Select.strategy_name pr.Select.pr_strategy)
         plan)
      [| "-" |]
  in
  (names, strategies, region_of)

let add_stall c kind k =
  let i = Stats.stall_kind_index kind in
  c.stalls.(i) <- c.stalls.(i) + k

(* Every core-cycle lands in the cell of the region enclosing its pc, under
   the mode it was spent in: busy, idle (asleep or halted), or the stall
   kind the machine counted it as. *)
let credit t m ~region_of ~core ~pc ~k (what : Machine.blame_event) =
  let mode_idx = match Machine.mode m with Inst.Coupled -> 0 | Inst.Decoupled -> 1 in
  let c = t.cells.(region_of ~core ~pc).(mode_idx) in
  match what with
  | Machine.Blame_busy -> c.busy <- c.busy + k
  | Machine.Blame_wait { b_wait = Machine.W_asleep | Machine.W_halted; _ } ->
    c.idle <- c.idle + k
  | Machine.Blame_wait { b_wait; _ } -> add_stall c (Machine.stall_of_wait b_wait) k
  | Machine.Blame_lockstep { b_kind } -> add_stall c b_kind k

let attach m (compiled : Driver.compiled) =
  if Program.n_cores compiled.Driver.executable <> (Machine.config m).Config.n_cores
  then invalid_arg "Region_profile.attach: core count mismatch";
  let names, strategies, region_of = lookup compiled in
  let fresh_cell _ =
    { busy = 0; idle = 0; stalls = Array.make Stats.n_stall_kinds 0 }
  in
  let t =
    {
      names;
      strategies;
      cells = Array.map (fun _ -> Array.init 2 fresh_cell) names;
    }
  in
  Machine.subscribe m (function
    | Machine.Core_cycles { core; pc; k; what; _ } ->
      credit t m ~region_of ~core ~pc ~k what
    | _ -> ());
  t

let cell_cycles c = c.busy + c.idle + Array.fold_left ( + ) 0 c.stalls

let rows t =
  let out = ref [] in
  for r = Array.length t.cells - 1 downto 0 do
    for mode_idx = 1 downto 0 do
      let c = t.cells.(r).(mode_idx) in
      if cell_cycles c > 0 then
        out :=
          {
            r_region = t.names.(r);
            r_strategy = t.strategies.(r);
            r_mode = (if mode_idx = 0 then Inst.Coupled else Inst.Decoupled);
            r_busy = c.busy;
            r_stalls = Array.copy c.stalls;
            r_idle = c.idle;
            r_cycles = cell_cycles c;
          }
          :: !out
    done
  done;
  !out

let total_cycles t =
  Array.fold_left
    (fun acc modes -> Array.fold_left (fun acc c -> acc + cell_cycles c) acc modes)
    0 t.cells

let mode_name = Tabulate.mode_name

let pp ppf t =
  let header =
    [ "region"; "strategy"; "mode"; "cycles"; "busy" ]
    @ List.map Stats.stall_kind_label Stats.all_stall_kinds
    @ [ "idle" ]
  in
  let body =
    List.map
      (fun row ->
        ( [ row.r_region; row.r_strategy; mode_name row.r_mode ],
          row.r_cycles,
          (row.r_busy
           :: List.map
                (fun k -> row.r_stalls.(Stats.stall_kind_index k))
                Stats.all_stall_kinds)
          @ [ row.r_idle ] ))
      (rows t)
  in
  Format.fprintf ppf "%s@." (Tabulate.breakdown ~header body);
  Format.fprintf ppf "total core-cycles: %d@." (total_cycles t)

let to_json t =
  let row_json row =
    Json.Obj
      ([
         ("region", Json.Str row.r_region);
         ("strategy", Json.Str row.r_strategy);
         ("mode", Json.Str (mode_name row.r_mode));
         ("cycles", Json.Int row.r_cycles);
         ("busy", Json.Int row.r_busy);
       ]
      @ List.map
          (fun k ->
            ( Stats.stall_kind_label k,
              Json.Int row.r_stalls.(Stats.stall_kind_index k) ))
          Stats.all_stall_kinds
      @ [ ("idle", Json.Int row.r_idle) ])
  in
  Json.Obj
    [
      ("total_core_cycles", Json.Int (total_cycles t));
      ("rows", Json.List (List.map row_json (rows t)));
    ]
