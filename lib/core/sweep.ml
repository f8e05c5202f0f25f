module Suite = Voltron_workloads.Suite
module Pool = Voltron_pool.Pool

let micros =
  [
    ("micro:gsm_llp", fun scale -> Suite.micro_gsm_llp ~scale ());
    ("micro:gzip_strands", fun scale -> Suite.micro_gzip_strands ~scale ());
    ("micro:gsm_ilp", fun scale -> Suite.micro_gsm_ilp ~scale ());
  ]

let program_of_name name ~scale =
  match List.assoc_opt name micros with
  | Some build -> Ok (build scale)
  | None -> (
    match Suite.by_name name with
    | b -> Ok (b.Suite.build ~scale ())
    | exception Not_found ->
      Error
        (Printf.sprintf
           "unknown benchmark %s (try `voltron_sim list`, or %s)" name
           (String.concat ", " (List.map fst micros))))

let targets ~scale =
  List.map
    (fun (b : Suite.benchmark) -> (b.Suite.bench_name, b.Suite.build ~scale ()))
    Suite.all
  @ List.map (fun (n, build) -> (n, build scale)) micros

let jobs j = if j <= 0 then Pool.default_jobs () else j

type 'a cell = { out : string; errs : string list; failures : int; value : 'a }

type sinks = { on_out : string -> unit; on_err : string -> unit }

let stdio =
  {
    on_out =
      (fun s ->
        print_string s;
        flush stdout);
    on_err = prerr_endline;
  }

let run ~sinks ~jobs:j cell targets =
  let guarded (name, p) =
    match cell name p with
    | c -> { c with value = Some c.value }
    | exception e ->
      {
        out = "";
        errs =
          [ Printf.sprintf "%s: internal error: %s" name (Printexc.to_string e) ];
        failures = 1;
        value = None;
      }
  in
  let emit _ c =
    sinks.on_out c.out;
    List.iter sinks.on_err c.errs
  in
  let cells =
    Pool.parallel_map_emit ~jobs:(jobs j) ~emit guarded (Array.of_list targets)
  in
  ( List.filter_map (fun c -> c.value) (Array.to_list cells),
    Array.fold_left (fun acc c -> acc + c.failures) 0 cells )
