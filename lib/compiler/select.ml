module Hir = Voltron_ir.Hir
module Config = Voltron_machine.Config
module Profile = Voltron_analysis.Profile
module Doall_a = Voltron_analysis.Doall

type choice = [ `Hybrid | `Ilp | `Tlp | `Llp | `Seq ]

let choice_names : (choice * string) list =
  [ (`Seq, "seq"); (`Ilp, "ilp"); (`Tlp, "tlp"); (`Llp, "llp"); (`Hybrid, "hybrid") ]

let choice_name c = List.assoc c choice_names

let choice_of_string s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) choice_names

type planned_region = {
  pr_name : string;
  pr_stmts : Hir.stmt list;
  pr_strategy : Codegen.strategy;
  pr_weight : int;
}

let strategy_name (s : Codegen.strategy) =
  match s with
  | Codegen.Seq -> "seq"
  | Codegen.Coupled_ilp -> "ilp"
  | Codegen.Strands -> "strands"
  | Codegen.Dswp -> "dswp"
  | Codegen.Doall { dp_speculative; _ } ->
    if dp_speculative then "doall(spec)" else "doall"

(* Thresholds (paper §4.2 gives 1.25 for DSWP; the rest are stated as
   "a threshold" — values chosen here and exercised by the ablation
   benches). *)
let dswp_threshold = 1.25
let miss_threshold = 0.15
let trip_factor = 2  (* require avg trips >= factor * cores *)
let tiny_region_weight = 60

let region_weight ~profile stmts =
  let acc = ref 0 in
  Hir.iter_stmts (fun s -> acc := !acc + Profile.dyn_count profile s.Hir.sid) stmts;
  !acc

(* --- DOALL planning -------------------------------------------------------- *)

let arrays_stored stmts =
  let acc = ref [] in
  Hir.iter_stmts
    (fun ({ Hir.node; _ } : Hir.stmt) ->
      match node with
      | Hir.Store (a, _, _) -> acc := a :: !acc
      | Hir.Assign _ | Hir.If _ | Hir.For _ | Hir.Do_while _ -> ())
    stmts;
  List.sort_uniq compare !acc

let arrays_loaded stmts =
  let acc = ref [] in
  Hir.iter_stmts
    (fun ({ Hir.node; _ } : Hir.stmt) ->
      match node with
      | Hir.Assign (_, Hir.Load (a, _)) -> acc := a :: !acc
      | Hir.Assign _ | Hir.Store _ | Hir.If _ | Hir.For _ | Hir.Do_while _ -> ())
    stmts;
  List.sort_uniq compare !acc

let has_store stmts = arrays_stored stmts <> []

(* Split a region around its first top-level For loop. *)
let split_first_for stmts =
  let rec go prefix = function
    | [] -> None
    | ({ Hir.sid; node = Hir.For loop } : Hir.stmt) :: rest ->
      Some (List.rev prefix, sid, loop, rest)
    | stmt :: rest -> go (stmt :: prefix) rest
  in
  go [] stmts

let doall_plan_of_region ~machine ~profile stmts =
  match split_first_for stmts with
  | None -> None
  | Some (prefix, loop_sid, loop, suffix) -> (
    match Doall_a.classify loop ~profile ~loop_sid with
    | Doall_a.Rejected _ -> None
    | (Doall_a.Proven accs | Doall_a.Speculative accs) as verdict ->
      let n = machine.Config.n_cores in
      let trips = Profile.avg_trip profile loop_sid in
      if trips < float_of_int (trip_factor * n) then None
        (* Prefix is replicated on every core: it must be side-effect
           free. *)
      else if has_store prefix then None
        (* Values computed inside the loop body and consumed after it
           cannot be reconstructed on the master (beyond the induction
           variable and recognised accumulators). *)
      else begin
        let body_defs = Hir.defined_vregs loop.Hir.body in
        let allowed =
          loop.Hir.var :: List.map (fun a -> a.Doall_a.acc_vreg) accs
        in
        let escaping =
          List.filter
            (fun v ->
              List.mem v body_defs && not (List.mem v allowed))
            (Hir.used_vregs suffix)
        in
        if escaping <> [] then None
        else begin
          let speculative =
            match verdict with
            | Doall_a.Proven _ ->
              (* Even a proven loop must speculate when the replicated
                 prefix reads arrays the loop writes: without TM, another
                 core's committed chunk stores could leak into a
                 still-running prefix. Under TM no memory commits while
                 any core is pre-transaction. *)
              let loop_stores = arrays_stored loop.Hir.body in
              List.exists (fun a -> List.mem a loop_stores) (arrays_loaded prefix)
            | Doall_a.Speculative _ -> true
            | Doall_a.Rejected _ -> assert false
          in
          Some
            {
              Codegen.dp_prefix = prefix;
              dp_loop = loop;
              dp_suffix = suffix;
              dp_accumulators = accs;
              dp_speculative = speculative;
            }
        end
      end)

(* --- DSWP estimate --------------------------------------------------------- *)

(* Throwaway lowering: its fresh registers and labels are never emitted.
   Array base addresses do not affect the estimates that read it, so lower
   against a synthetic layout sized from the largest array id in the
   region. *)
let lower_region stmts =
  let max_v =
    List.fold_left max 0 (Hir.defined_vregs stmts @ Hir.used_vregs stmts) + 1
  in
  let max_arr = ref (-1) in
  Hir.iter_stmts
    (fun ({ Hir.node; _ } : Hir.stmt) ->
      match node with
      | Hir.Assign (_, Hir.Load (a, _)) | Hir.Store (a, _, _) ->
        max_arr := max !max_arr a
      | Hir.Assign _ | Hir.If _ | Hir.For _ | Hir.Do_while _ -> ())
    stmts;
  let fake =
    {
      Hir.prog_name = "estimate";
      arrays =
        Array.init (!max_arr + 1) (fun i ->
            { Hir.arr_name = Printf.sprintf "a%d" i; size = 1024; init = None });
      regions = [];
      n_vregs = max_v;
    }
  in
  let lay = Voltron_ir.Layout.compute fake in
  let lctx = Voltron_ir.Lower.make_ctx ~layout:lay ~first_vreg:max_v in
  Voltron_ir.Lower.region lctx stmts

let dswp_estimate ~machine stmts =
  let cfg = lower_region stmts in
  let memdep = Voltron_analysis.Memdep.create ~region_stmts:stmts cfg in
  let dg = Voltron_analysis.Depgraph.build ~cfg ~memdep ~latency:Config.latency in
  match
    Partition.dswp ~n_cores:machine.Config.n_cores ~dg ~cfg ~memdep
  with
  | Some (_, est) -> est
  | None -> 1.0

(* --- Miss fraction --------------------------------------------------------- *)

let miss_fraction ~profile stmts =
  let miss_cycles = ref 0. in
  let work = ref 0. in
  Hir.iter_stmts
    (fun ({ Hir.sid; node } : Hir.stmt) ->
      work := !work +. (1.6 *. float_of_int (Profile.dyn_count profile sid));
      match node with
      | Hir.Assign (_, Hir.Load _) | Hir.Store _ ->
        let acc = float_of_int (Profile.access_count profile sid) in
        miss_cycles := !miss_cycles +. (acc *. Profile.miss_rate profile sid *. 20.)
      | Hir.Assign _ | Hir.If _ | Hir.For _ | Hir.Do_while _ -> ())
    stmts;
  if !work +. !miss_cycles <= 0. then 0.
  else !miss_cycles /. (!work +. !miss_cycles)

(* --- Planning --------------------------------------------------------------- *)

let plan ~machine ~profile choice (p : Hir.program) =
  List.map
    (fun (r : Hir.region) ->
      let weight = region_weight ~profile r.Hir.stmts in
      let doall () = doall_plan_of_region ~machine ~profile r.Hir.stmts in
      let tlp () =
        if dswp_estimate ~machine r.Hir.stmts >= dswp_threshold then Codegen.Dswp
        else Codegen.Strands
      in
      let strategy =
        if machine.Config.n_cores <= 1 then Codegen.Seq
        else
          match choice with
          | `Seq -> Codegen.Seq
          | `Ilp -> if weight < tiny_region_weight then Codegen.Seq else Codegen.Coupled_ilp
          | `Tlp -> if weight < tiny_region_weight then Codegen.Seq else tlp ()
          | `Llp -> (
            match doall () with Some plan -> Codegen.Doall plan | None -> Codegen.Seq)
          | `Hybrid ->
            if weight < tiny_region_weight then Codegen.Seq
            else (
              match doall () with
              | Some plan -> Codegen.Doall plan
              | None ->
                if dswp_estimate ~machine r.Hir.stmts >= dswp_threshold then
                  Codegen.Dswp
                else if miss_fraction ~profile r.Hir.stmts > miss_threshold then
                  Codegen.Strands
                else Codegen.Coupled_ilp)
      in
      {
        pr_name = r.Hir.region_name;
        pr_stmts = r.Hir.stmts;
        pr_strategy = strategy;
        pr_weight = weight;
      })
    p.Hir.regions
