module Ast = Voltron_lang.Ast
module Frontend = Voltron_lang.Frontend
module Run = Voltron.Run
module Rng = Voltron_util.Rng
module Pool = Voltron_pool.Pool

type finding = {
  f_campaign_seed : int;
  f_index : int;
  f_seed : int;
  f_class : string;
  f_case : Run.diff_case option;
  f_detail : string;
  f_original : Ast.program;
  f_minimized : Ast.program;
}

type report = {
  r_programs : int;
  r_runs : int;
  r_warnings : int;
  r_findings : finding list;
}

let crash_class e =
  "crash: "
  ^ (match e with
    | Frontend.Error _ -> "frontend"
    | Voltron_ir.Interp.Step_limit_exceeded -> "step-limit"
    | Invalid_argument _ -> "invalid-argument"
    | Failure _ -> "failure"
    | _ -> Printexc.to_string e)

(* Findings must reproduce from their on-disk form: go through print ->
   parse -> elaborate, never straight from the AST. *)
let elaborate (p : Ast.program) =
  Frontend.parse_string ~name:p.Ast.prog_name (Gen.render p)

let first_failure ?strategies ?cores ?coherence ?miscompile ?ff_tweak
    ?dir_tweak ?sanitize (p : Ast.program) =
  match elaborate p with
  | exception e -> (Some (crash_class e, None, Printexc.to_string e), 0, 0)
  | hir -> (
    match
      Run.differential ?strategies ?cores ?coherence ?miscompile ?ff_tweak
        ?dir_tweak ?sanitize hir
    with
    | exception e -> (Some (crash_class e, None, Printexc.to_string e), 0, 0)
    | d -> (
      match d.Run.diff_divergences with
      | [] -> (None, d.Run.diff_runs, d.Run.diff_warnings)
      | dv :: _ ->
        let case =
          match dv with
          | Run.Non_completion { nc_case; _ } -> Some nc_case
          | Run.Checksum_mismatch { cm_case; _ } -> Some cm_case
          | Run.Checker_rejected { cr_case; _ } -> Some cr_case
          | Run.Ff_cycle_mismatch { fc_case; _ } -> Some fc_case
          | Run.Sanity_violation { sv_case; _ } -> Some sv_case
        in
        ( Some (Run.divergence_class dv, case, Run.divergence_to_string dv),
          d.Run.diff_runs,
          d.Run.diff_warnings )))

let minimize ?strategies ?cores ?coherence ?miscompile ?ff_tweak ?dir_tweak
    ?sanitize ~cls ?case p =
  (* Re-running just the diverging case per candidate — its strategy, core
     count and coherence backend — keeps shrinking cheap; the class must
     be preserved exactly. *)
  let strategies, cores, coherence =
    match case with
    | Some c ->
      (Some [ c.Run.d_strategy ], Some [ c.Run.d_cores ],
       Some [ c.Run.d_coherence ])
    | None -> (strategies, cores, coherence)
  in
  let keep candidate =
    match
      first_failure ?strategies ?cores ?coherence ?miscompile ?ff_tweak
        ?dir_tweak ?sanitize candidate
    with
    | Some (cls', _, _), _, _ -> cls' = cls
    | None, _, _ -> false
  in
  if keep p then Shrink.shrink ~keep p else p

(* One campaign cell = generate, run the contract, shrink. Cells touch no
   shared state — each derives its generator seed by {!Rng.split} from
   the campaign seed (a pure function of (campaign seed, cell index), so
   cell k is the same program at any [jobs] and any [count] covering it)
   — which makes them safe to fan out on the pool. All log lines a cell
   produces are buffered and emitted through the pool's ordered
   completion frontier, so progress counters and finding messages arrive
   in cell-index order and the transcript is byte-identical for every
   [jobs] value. *)
let run ?strategies ?cores ?coherence ?sanitize ?(size = 24)
    ?(minimize_findings = true) ?(on_program = fun ~seed:_ _ -> ())
    ?(log = ignore) ?(jobs = 1) ?(index = 0) ~seed ~count () =
  let rng = Rng.create seed in
  let cell k =
    let idx = index + k in
    let s = Rng.next (Rng.split rng idx) in
    let p = Gen.program ~size ~seed:s () in
    on_program ~seed:s p;
    let lines = ref [] in
    let say msg = lines := msg :: !lines in
    let failure, r, w = first_failure ?strategies ?cores ?coherence ?sanitize p in
    let finding =
      match failure with
      | None -> None
      | Some (cls, case, detail) ->
        say (Printf.sprintf "seed %d: %s divergence — %s" s cls detail);
        let minimized =
          if minimize_findings then begin
            let m = minimize ?strategies ?cores ?coherence ?sanitize ~cls ?case p in
            say
              (Printf.sprintf "seed %d: shrunk %d -> %d source lines" s
                 (Gen.source_lines p) (Gen.source_lines m));
            m
          end
          else p
        in
        Some
          {
            f_campaign_seed = seed;
            f_index = idx;
            f_seed = s;
            f_class = cls;
            f_case = case;
            f_detail = detail;
            f_original = p;
            f_minimized = minimized;
          }
    in
    (r, w, finding, List.rev !lines)
  in
  let runs = ref 0 and warnings = ref 0 and findings = ref [] in
  let emit k (r, w, finding, lines) =
    runs := !runs + r;
    warnings := !warnings + w;
    (match finding with None -> () | Some f -> findings := f :: !findings);
    List.iter log lines;
    if (k + 1) mod 25 = 0 then
      log
        (Printf.sprintf "%d/%d programs, %d simulations, %d finding(s)" (k + 1)
           count !runs
           (List.length !findings))
  in
  ignore (Pool.parallel_map_emit ~jobs ~emit cell (Array.init count Fun.id));
  {
    r_programs = count;
    r_runs = !runs;
    r_warnings = !warnings;
    r_findings = List.rev !findings;
  }

let sanitize_class cls =
  String.map (fun c -> if c = ' ' || c = ':' || c = '/' then '-' else c) cls

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_reproducer ~dir f =
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "fuzz_s%d_i%d_%s.vc" f.f_campaign_seed f.f_index
         (sanitize_class f.f_class))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "// voltron_gen reproducer — failure class: %s\n\
     // campaign seed %d, cell %d (generator seed %d)%s\n\
     // %s\n\
     // regenerate the unshrunk original: voltron_sim fuzz --seed %d --index \
     %d --count 1\n\
     %s"
    f.f_class f.f_campaign_seed f.f_index f.f_seed
    (match f.f_case with
    | Some c ->
      Printf.sprintf ", first diverging case: %s on %d cores, %s coherence"
        (Voltron_compiler.Select.choice_name c.Run.d_strategy)
        c.Run.d_cores
        (Voltron_mem.Coherence.protocol_name c.Run.d_coherence)
    | None -> "")
    (String.concat " " (String.split_on_char '\n' f.f_detail))
    f.f_campaign_seed f.f_index (Gen.render f.f_minimized);
  close_out oc;
  path
