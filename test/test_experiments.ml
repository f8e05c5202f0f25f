(* Shape tests for the evaluation itself: the paper's qualitative claims
   must hold on reduced-scale runs of the experiment harness, so a
   regression in kernels, compiler or machine that silently flips a
   figure's story fails the suite. These are the claims EXPERIMENTS.md
   reports; exact magnitudes are not asserted, directions and orderings
   are. *)

module E = Voltron.Experiments

let scale = 0.3

(* A representative slice keeps the suite fast: one LLP-heavy, one
   strand-heavy, one ILP-heavy and one mixed benchmark. *)
let llp_bench = "171.swim"
let tlp_bench = "179.art"
let ilp_bench = "rawcaudio"
let mixed_bench = "cjpeg"
let slice = [ llp_bench; tlp_bench; ilp_bench; mixed_bench ]

let find_by field rows name = List.find (fun r -> field r = name) rows

let test_fig10_11_winners () =
  List.iter
    (fun n_cores ->
      let rows =
        if n_cores = 2 then E.fig10 ~scale ~benches:slice ()
        else E.fig11 ~scale ~benches:slice ()
      in
      let row = find_by (fun (r : E.per_type_speedup) -> r.E.bench) rows in
      let swim = row llp_bench and art = row tlp_bench in
      Alcotest.(check bool)
        (Printf.sprintf "swim: LLP best at %d cores" n_cores)
        true
        (swim.E.sp_llp >= swim.E.sp_ilp && swim.E.sp_llp >= swim.E.sp_tlp *. 0.95);
      Alcotest.(check bool)
        (Printf.sprintf "art: TLP beats ILP at %d cores" n_cores)
        true (art.E.sp_tlp > art.E.sp_ilp);
      Alcotest.(check bool) "art: TLP beats LLP" true (art.E.sp_tlp > art.E.sp_llp))
    [ 2; 4 ]

let test_fig12_decoupled_stalls_lower () =
  let rows = E.fig12 ~scale ~benches:[ tlp_bench; mixed_bench ] () in
  List.iter
    (fun (r : E.stall_breakdown) ->
      Alcotest.(check bool)
        (r.E.sb_bench ^ ": decoupled D-stalls below half of coupled")
        true
        (r.E.decoupled_d < 0.5 *. r.E.coupled_d);
      Alcotest.(check bool)
        (r.E.sb_bench ^ ": decoupled shows receive stalls")
        true
        (r.E.decoupled_recv > 0.01))
    rows

let test_fig13_hybrid_dominates () =
  let hybrid = E.fig13 ~scale ~benches:slice () in
  let singles4 = E.fig11 ~scale ~benches:slice () in
  List.iter
    (fun (h : E.hybrid_speedup) ->
      let s =
        List.find (fun (r : E.per_type_speedup) -> r.E.bench = h.E.hs_bench) singles4
      in
      let best = max s.E.sp_ilp (max s.E.sp_tlp s.E.sp_llp) in
      (* Allow 5% noise: hybrid may pay a region-boundary switch the
         forced build avoids. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: hybrid %.2f >= best single %.2f" h.E.hs_bench
           h.E.hs_4core best)
        true
        (h.E.hs_4core >= 0.95 *. best);
      Alcotest.(check bool) "4 cores >= 2 cores" true
        (h.E.hs_4core >= 0.95 *. h.E.hs_2core))
    hybrid

let test_fig14_modes_mixed () =
  let rows = E.fig14 ~scale ~benches:[ ilp_bench; tlp_bench ] () in
  let row = find_by (fun (r : E.mode_split) -> r.E.ms_bench) rows in
  (* The ILP-heavy benchmark spends real time coupled; the strand-heavy
     one lives almost entirely decoupled (epic-style, paper §5.2). *)
  Alcotest.(check bool) "ilp bench uses coupled mode" true
    ((row ilp_bench).E.coupled_pct > 10.);
  Alcotest.(check bool) "tlp bench mostly decoupled" true
    ((row tlp_bench).E.decoupled_pct > 80.)

let test_micro_directions () =
  let rows = E.micro ~scale:0.5 () in
  List.iter
    (fun (m : E.micro_result) ->
      Alcotest.(check bool)
        (m.E.mi_name ^ " speeds up")
        true (m.E.mi_measured > 0.95))
    rows;
  (* The DOALL example is the strongest, as in the paper. *)
  match rows with
  | doall :: _ ->
    Alcotest.(check bool) "fig7 strongest" true
      (List.for_all (fun (m : E.micro_result) -> doall.E.mi_measured >= m.E.mi_measured) rows)
  | [] -> Alcotest.fail "no micro rows"

let test_ablation_directions () =
  (* A3: decoupled tolerance grows with memory latency, coupled shrinks. *)
  let rows = E.ablation_memlat ~scale () in
  let value row name = List.assoc name row.E.ab_values in
  (match rows with
  | [ lat50; _; lat200 ] ->
    Alcotest.(check bool) "decoupled grows" true
      (value lat200 "decoupled TLP" > value lat50 "decoupled TLP" *. 0.98);
    Alcotest.(check bool) "coupled shrinks" true
      (value lat200 "coupled ILP" < value lat50 "coupled ILP" +. 0.02)
  | _ -> Alcotest.fail "three latency rows expected");
  (* A4: a conflict costs real speedup but the clean run is fast. *)
  (match E.ablation_tm ~scale () with
  | clean :: conflicted :: _ ->
    Alcotest.(check bool) "clean speculation fast" true (value clean "speedup" > 1.5);
    Alcotest.(check bool) "conflict costs" true
      (value conflicted "speedup" < value clean "speedup");
    Alcotest.(check bool) "conflict observed" true (value conflicted "conflicts" >= 1.)
  | _ -> Alcotest.fail "tm rows expected");
  (* A6: if-conversion removes predicate stalls and does not slow down. *)
  match E.ablation_ifconv ~scale () with
  | [ branchy; converted ] ->
    Alcotest.(check bool) "pred stalls gone" true
      (value converted "pred-stall cycles/core" < 1.);
    Alcotest.(check bool) "no slowdown" true
      (value converted "TLP speedup" >= value branchy "TLP speedup" *. 0.98)
  | _ -> Alcotest.fail "two ifconv rows expected"

(* --- The CLI's sweep engine ----------------------------------------------- *)

module Sweep = Voltron.Sweep

(* Sinks that record both streams; stderr lines get their newline back. *)
let recording_sinks () =
  let out = Buffer.create 256 and err = Buffer.create 256 in
  let on_err l = Buffer.add_string err (l ^ "\n") in
  ({ Sweep.on_out = Buffer.add_string out; on_err }, out, err)

let sweep_at ~jobs cell targets =
  let sinks, out, err = recording_sinks () in
  let values, failures = Sweep.run ~sinks ~jobs cell targets in
  (Buffer.contents out, Buffer.contents err, values, failures)

let numbered n = List.init n (fun i -> (Printf.sprintf "t%d" i, i))

(* Early cells cost the most, so at jobs > 1 they finish last. *)
let uneven_cell name i =
  let acc = ref 0 in
  for k = 1 to (12 - i) * 1_000_000 do
    acc := Sys.opaque_identity (!acc + (k land 7))
  done;
  {
    Sweep.out = Printf.sprintf "%s %d\n" name (!acc land 1);
    errs = (if i mod 3 = 0 then [ name ^ " failed" ] else []);
    failures = (if i mod 3 = 0 then 1 else 0);
    value = i * i;
  }

let test_sweep_jobs_invariant () =
  let serial = sweep_at ~jobs:1 uneven_cell (numbered 12) in
  let parallel = sweep_at ~jobs:4 uneven_cell (numbered 12) in
  let out, err, values, failures = serial in
  Alcotest.(check int) "failures summed" 4 failures;
  Alcotest.(check (list int)) "values in cell order"
    (List.init 12 (fun i -> i * i))
    values;
  Alcotest.(check string) "errs in cell order"
    "t0 failed\nt3 failed\nt6 failed\nt9 failed\n" err;
  Alcotest.(check int) "one out chunk per cell" 12
    (List.length (String.split_on_char '\n' out) - 1);
  Alcotest.(check bool) "jobs 4 = jobs 1" true (parallel = serial)

let test_sweep_raising_cell () =
  let cell name i =
    if i = 2 then failwith "boom"
    else { Sweep.out = name ^ "\n"; errs = []; failures = 0; value = i }
  in
  List.iter
    (fun jobs ->
      let out, err, values, failures = sweep_at ~jobs cell (numbered 6) in
      let label = Printf.sprintf "jobs %d: " jobs in
      Alcotest.(check string) (label ^ "one internal error line")
        "t2: internal error: Failure(\"boom\")\n" err;
      Alcotest.(check int) (label ^ "one failure") 1 failures;
      Alcotest.(check string) (label ^ "later cells still emit, in order")
        "t0\nt1\nt3\nt4\nt5\n" out;
      Alcotest.(check (list int)) (label ^ "no value for the raising cell")
        [ 0; 1; 3; 4; 5 ] values)
    [ 1; 4 ]

let test_sweep_targets () =
  let suite =
    List.map
      (fun (b : Voltron_workloads.Suite.benchmark) ->
        b.Voltron_workloads.Suite.bench_name)
      Voltron_workloads.Suite.all
  in
  Alcotest.(check int) "25 suite programs" 25 (List.length suite);
  Alcotest.(check (list string)) "suite, then the micro kernels"
    (suite @ [ "micro:gsm_llp"; "micro:gzip_strands"; "micro:gsm_ilp" ])
    (List.map fst (Sweep.targets ~scale:0.05))

let test_sweep_unknown_name () =
  Alcotest.(check bool) "unknown name is an Error" true
    (Result.is_error (Sweep.program_of_name "no-such-bench" ~scale:0.05));
  Alcotest.(check bool) "micro kernel resolves" true
    (Result.is_ok (Sweep.program_of_name "micro:gsm_llp" ~scale:0.05))

let () =
  Alcotest.run "experiments"
    [
      ( "figures",
        [
          Alcotest.test_case "fig10/11 winners" `Slow test_fig10_11_winners;
          Alcotest.test_case "fig12 stall shape" `Slow test_fig12_decoupled_stalls_lower;
          Alcotest.test_case "fig13 hybrid dominates" `Slow test_fig13_hybrid_dominates;
          Alcotest.test_case "fig14 mode residency" `Slow test_fig14_modes_mixed;
          Alcotest.test_case "micro directions" `Slow test_micro_directions;
        ] );
      ( "ablations",
        [ Alcotest.test_case "directions" `Slow test_ablation_directions ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs-invariant streams" `Quick
            test_sweep_jobs_invariant;
          Alcotest.test_case "raising cell" `Quick test_sweep_raising_cell;
          Alcotest.test_case "targets" `Quick test_sweep_targets;
          Alcotest.test_case "unknown name" `Quick test_sweep_unknown_name;
        ] );
    ]
