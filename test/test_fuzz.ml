(* Differential fuzzer harness: generator determinism and soundness,
   replay of the checked-in corpus over the full strategy x core matrix,
   and self-tests that prove each divergence class is actually caught —
   a deliberately miscompiled artifact must be flagged AND shrink to a
   small reproducer, otherwise a silent harness bug could make every
   campaign vacuously green. *)

module Gen = Voltron_gen.Gen
module Campaign = Voltron_gen.Campaign
module Shrink = Voltron_gen.Shrink
module Coherence = Voltron_mem.Coherence
module Run = Voltron.Run
module Frontend = Voltron_lang.Frontend
module Parser = Voltron_lang.Parser
module Driver = Voltron_compiler.Driver
module Check = Voltron_check.Check

(* --- Generator ------------------------------------------------------------------- *)

let test_determinism () =
  List.iter
    (fun seed ->
      let a = Gen.render (Gen.program ~seed ()) in
      let b = Gen.render (Gen.program ~seed ()) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces" seed)
        a b)
    [ 1; 7; 42; 182 ];
  let a = Gen.render (Gen.program ~seed:7 ()) in
  let b = Gen.render (Gen.program ~seed:8 ()) in
  Alcotest.(check bool) "distinct seeds differ" true (a <> b)

(* Every generated program must survive render -> re-parse -> elaborate:
   the generator is correct by construction, never by rejection. *)
let test_generated_elaborate () =
  for seed = 1 to 30 do
    let p = Gen.program ~seed () in
    match Frontend.parse_string ~name:p.Voltron_lang.Ast.prog_name (Gen.render p) with
    | _ -> ()
    | exception e ->
      Alcotest.failf "seed %d does not elaborate: %s" seed
        (Option.value ~default:(Printexc.to_string e) (Frontend.error_to_string e))
  done

(* --- Corpus replay --------------------------------------------------------------- *)

let corpus_dir () =
  (* dune runtest runs in the test directory's build dir; dune exec from
     the workspace root. *)
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* Every checked-in program — fixed-seed generator output and shrunk
   regression reproducers alike — must pass the whole contract: oracle
   checksum agreement, clean checker, fast-forward cycle equality,
   watchdog-free termination, over all strategies, core counts up to 16
   and both coherence backends (each cell simulates snoop and directory,
   fast-forward on and off — the coherence axis rides every replay). *)
let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus present" true (List.length files >= 10);
  List.iter
    (fun file ->
      let hir = Frontend.parse_file file in
      let d =
        Run.differential ~cores:[ 2; 4; 8; 16 ]
          ~coherence:[ Coherence.Snoop; Coherence.Directory ] hir
      in
      match d.Run.diff_divergences with
      | [] -> ()
      | div :: _ ->
        Alcotest.failf "%s diverges: %s" file (Run.divergence_to_string div))
    files

(* A fixed slice of the corpus replayed with the runtime sanitizer in
   abort mode: every run must finish clean — the dynamic invariants hold
   on real (and shrunk-reproducer) programs, not just the workload
   suite. *)
let test_corpus_replay_sanitized () =
  let files = corpus_files () in
  Alcotest.(check bool) "at least three corpus programs" true
    (List.length files >= 3);
  List.iteri
    (fun i file ->
      if i < 3 then begin
        let hir = Frontend.parse_file file in
        let d =
          Run.differential ~cores:[ 2; 4 ]
            ~sanitize:Voltron_sanity.Sanity.Abort hir
        in
        match d.Run.diff_divergences with
        | [] -> ()
        | div :: _ ->
          Alcotest.failf "%s diverges under the sanitizer: %s" file
            (Run.divergence_to_string div)
      end)
    files

(* --- Injected divergences: the harness catches what it claims to ----------------- *)

let first_class ?strategies ?cores ?coherence ?miscompile ?ff_tweak ?dir_tweak p =
  let failure, _, _ =
    Campaign.first_failure ?strategies ?cores ?coherence ?miscompile ?ff_tweak
      ?dir_tweak p
  in
  Option.map (fun (cls, _, _) -> cls) failure

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let seed_ast = Gen.program ~seed:1 ()

let test_catches_checksum () =
  let miscompile c =
    { c with Driver.oracle_checksum = c.Driver.oracle_checksum + 1 }
  in
  Alcotest.(check (option string))
    "bumped oracle checksum is flagged" (Some "checksum")
    (first_class ~strategies:[ `Tlp ] ~cores:[ 2 ] ~miscompile seed_ast)

let test_catches_checker () =
  let miscompile c =
    let diag =
      { Check.d_severity = Check.Error; d_loc = None;
        d_kind = Check.Malformed "injected by test_fuzz" }
    in
    { c with Driver.check_diags = diag :: c.Driver.check_diags }
  in
  Alcotest.(check (option string))
    "injected checker error is flagged" (Some "checker")
    (first_class ~strategies:[ `Tlp ] ~cores:[ 2 ] ~miscompile seed_ast)

let test_catches_ff_divergence () =
  (* Perturb only the per-cycle reference machine: the fast-forward run
     and the reference run then disagree on cycles, which must surface as
     an ff-cycles divergence (fast-forward is architecturally invisible,
     so any on/off disagreement is a simulator bug). *)
  let ff_tweak (c : Voltron_machine.Config.t) =
    { c with cache = { c.cache with Voltron_mem.Coherence.lat_l1 = c.cache.Voltron_mem.Coherence.lat_l1 + 3 } }
  in
  Alcotest.(check (option string))
    "reference-only latency change is flagged" (Some "ff-cycles")
    (first_class ~strategies:[ `Tlp ] ~cores:[ 2 ] ~ff_tweak seed_ast)

(* A directory-only pathology (here: its simulations stop dead almost
   immediately) must surface as divergences whose cases all name the
   directory backend, while the snoop half of every cell stays green —
   proof the coherence axis is wired into the rig, not just along for
   the ride. *)
let dir_sabotage (c : Voltron_machine.Config.t) =
  { c with Voltron_machine.Config.max_cycles = 10 }

let test_catches_directory_only () =
  let hir =
    Frontend.parse_string ~name:seed_ast.Voltron_lang.Ast.prog_name
      (Gen.render seed_ast)
  in
  let d =
    Run.differential ~strategies:[ `Tlp ] ~cores:[ 2 ] ~dir_tweak:dir_sabotage
      hir
  in
  Alcotest.(check bool) "sabotage is flagged" true
    (d.Run.diff_divergences <> []);
  List.iter
    (fun dv ->
      (match dv with
      | Run.Non_completion { nc_case; _ } ->
        Alcotest.(check bool) "case names the directory backend" true
          (nc_case.Run.d_coherence = Coherence.Directory)
      | dv ->
        Alcotest.failf "unexpected divergence class %s"
          (Run.divergence_class dv));
      Alcotest.(check bool) "transcript names the backend" true
        (contains (Run.divergence_to_string dv) "directory"))
    d.Run.diff_divergences

let test_clean_program_has_no_finding () =
  Alcotest.(check (option string))
    "seed 1 passes the full matrix" None (first_class seed_ast)

(* --- Shrinking ------------------------------------------------------------------- *)

(* The acceptance bar from the issue: a deliberately injected miscompile
   must shrink below 25 source lines. The injected checksum bump fails on
   any completing program, so the shrinker should reach a near-minimal
   one. *)
let test_shrinks_injected_miscompile () =
  let miscompile c =
    { c with Driver.oracle_checksum = c.Driver.oracle_checksum + 1 }
  in
  let case = { Run.d_strategy = `Tlp; d_cores = 2; d_coherence = Coherence.Snoop } in
  let small =
    Campaign.minimize ~strategies:[ `Tlp ] ~cores:[ 2 ] ~miscompile
      ~cls:"checksum" ~case seed_ast
  in
  let lines = Gen.source_lines small in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to %d lines (< 25)" lines)
    true (lines < 25);
  (* And the shrunk program still reproduces the class. *)
  Alcotest.(check (option string))
    "shrunk program still fails" (Some "checksum")
    (first_class ~strategies:[ `Tlp ] ~cores:[ 2 ] ~miscompile small)

(* Same bar for the coherence axis: the injected directory-only failure
   must shrink below 25 lines with both the class and the backend pinned
   — the minimizer re-runs only the diverging directory cell. *)
let test_shrinks_directory_miscompile () =
  let case =
    { Run.d_strategy = `Tlp; d_cores = 2; d_coherence = Coherence.Directory }
  in
  let small =
    Campaign.minimize ~strategies:[ `Tlp ] ~cores:[ 2 ] ~dir_tweak:dir_sabotage
      ~cls:"non-completion" ~case seed_ast
  in
  let lines = Gen.source_lines small in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to %d lines (< 25)" lines)
    true (lines < 25);
  Alcotest.(check (option string))
    "shrunk program still fails on the directory axis" (Some "non-completion")
    (first_class ~strategies:[ `Tlp ] ~cores:[ 2 ]
       ~coherence:[ Coherence.Directory ] ~dir_tweak:dir_sabotage small)

let test_shrink_preserves_keep () =
  (* Structural sanity on the shrinker itself: keep = "has at least one
     region" must hold at every accepted step, and the fixpoint is small. *)
  let p = Gen.program ~seed:5 () in
  let keep (q : Voltron_lang.Ast.program) = q.Voltron_lang.Ast.regions <> [] in
  let small = Shrink.shrink ~keep p in
  Alcotest.(check bool) "keep holds at fixpoint" true (keep small);
  Alcotest.(check bool) "shrunk not larger" true
    (Gen.source_lines small <= Gen.source_lines p)

(* --- Reproducer files ------------------------------------------------------------ *)

let synthetic_finding =
  {
    Campaign.f_campaign_seed = 99;
    f_index = 3;
    f_seed = 4242;
    f_class = "checksum";
    f_case = Some { Run.d_strategy = `Hybrid; d_cores = 4; d_coherence = Coherence.Directory };
    f_detail = "synthetic finding for reproducer round-trip";
    f_original = seed_ast;
    f_minimized = seed_ast;
  }

let test_write_reproducer_reparses () =
  let dir = Filename.temp_file "voltron_corpus" "" in
  Sys.remove dir;
  let finding = synthetic_finding in
  let path = Campaign.write_reproducer ~dir finding in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "named by campaign seed, index and class" true
    (Filename.basename path = "fuzz_s99_i3_checksum.vc");
  (* The triage header must be comments only: the file re-parses. *)
  match Frontend.parse_file path with
  | _ -> Sys.remove path; Unix.rmdir dir
  | exception e ->
    Alcotest.failf "reproducer does not re-parse: %s" (Printexc.to_string e)

(* [--corpus A/B] with no [A] yet: every missing parent is created. *)
let test_write_reproducer_nested_dir () =
  let root = Filename.temp_file "voltron_corpus" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Campaign.write_reproducer ~dir synthetic_finding in
  Alcotest.(check string) "written inside the nested directory" dir
    (Filename.dirname path);
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Sys.remove path;
  Unix.rmdir dir;
  Unix.rmdir (Filename.dirname dir);
  Unix.rmdir root

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "generated programs elaborate" `Quick
            test_generated_elaborate;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replay full matrix" `Slow test_corpus_replay;
          Alcotest.test_case "sanitized replay" `Slow test_corpus_replay_sanitized;
        ] );
      ( "injection",
        [
          Alcotest.test_case "checksum divergence caught" `Quick
            test_catches_checksum;
          Alcotest.test_case "checker divergence caught" `Quick
            test_catches_checker;
          Alcotest.test_case "ff divergence caught" `Quick
            test_catches_ff_divergence;
          Alcotest.test_case "directory-only divergence caught" `Quick
            test_catches_directory_only;
          Alcotest.test_case "clean program passes" `Quick
            test_clean_program_has_no_finding;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "injected miscompile shrinks small" `Slow
            test_shrinks_injected_miscompile;
          Alcotest.test_case "directory miscompile shrinks small" `Slow
            test_shrinks_directory_miscompile;
          Alcotest.test_case "keep preserved" `Quick test_shrink_preserves_keep;
        ] );
      ( "reproducer",
        [
          Alcotest.test_case "write and re-parse" `Quick
            test_write_reproducer_reparses;
          Alcotest.test_case "nested missing directory" `Quick
            test_write_reproducer_nested_dir;
        ] );
    ]
