module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Hir = Voltron_ir.Hir
module Check = Voltron_check.Check

type compiled = {
  executable : Voltron_isa.Program.t;
  plan : Select.planned_region list;
  region_extents : Codegen.region_extent list;
  oracle_checksum : int;
  array_footprint : int;
  check_diags : Check.diag list;
}

type oracle = {
  dyn_profile : Voltron_analysis.Profile.t;
  checksum : int;
  footprint : int;
}

let interpret ?max_steps p =
  let dyn_profile, r = Voltron_analysis.Profile.collect_run ?max_steps p in
  let footprint = Voltron_ir.Layout.mem_size r.Voltron_ir.Interp.layout in
  {
    dyn_profile;
    checksum = Voltron_mem.Memory.checksum_prefix r.Voltron_ir.Interp.memory footprint;
    footprint;
  }

let compile ~machine ?(choice = `Hybrid) ?(check = true) ?profile ?max_steps
    ?oracle (p : Hir.program) =
  let oracle = match oracle with Some o -> o | None -> interpret ?max_steps p in
  let profile = Option.value profile ~default:oracle.dyn_profile in
  let plan = Select.plan ~machine ~profile choice p in
  let cg = Codegen.create ~profile:oracle.dyn_profile machine p in
  List.iter
    (fun (pr : Select.planned_region) ->
      Codegen.emit_region cg ~name:pr.Select.pr_name pr.Select.pr_stmts
        pr.Select.pr_strategy)
    plan;
  let executable = Codegen.finalize cg in
  let check_diags =
    if check then begin
      let diags =
        Check.check_program ~infos:(Codegen.check_infos cg) machine executable
      in
      if Check.has_errors diags then raise (Check.Failed diags);
      diags
    end
    else []
  in
  {
    executable;
    plan;
    region_extents = Codegen.region_extents cg;
    oracle_checksum = oracle.checksum;
    array_footprint = oracle.footprint;
    check_diags;
  }

let verify machine compiled =
  let m = Machine.create machine compiled.executable in
  let result = Machine.run m in
  match result.Machine.outcome with
  | Machine.Finished ->
    let sum =
      Voltron_mem.Memory.checksum_prefix (Machine.memory m)
        compiled.array_footprint
    in
    if sum = compiled.oracle_checksum then Ok result.Machine.cycles
    else
      Error
        (Printf.sprintf "checksum mismatch: oracle %x, machine %x"
           compiled.oracle_checksum sum)
  | o -> Error (Machine.outcome_to_string o)
