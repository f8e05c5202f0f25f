module Cache = Voltron_mem.Cache
module Hir = Voltron_ir.Hir
module Interp = Voltron_ir.Interp

(* Every fact is an array indexed by statement site id; a sid the program
   does not use (or never executed) reads as zero. *)
type t = {
  entered : int array;  (** loop sid -> times entered *)
  trips : int array;  (** loop sid -> iterations summed over its entries *)
  cross_raw : bool array;  (** loop sid -> cross-iteration RAW observed *)
  accesses : int array;  (** memory site -> dynamic accesses *)
  misses : int array;  (** memory site -> profiling-cache misses *)
  dyn : int array;  (** any site -> dynamic executions *)
  mutable total : int;
}

(* Sids are dense from 0 in built programs, but shrinking and the optimiser
   leave gaps, so size the tables by the largest sid present. *)
let sid_bound (p : Hir.program) =
  let m = ref (-1) in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts (fun (s : Hir.stmt) -> m := max !m s.Hir.sid) r.Hir.stmts)
    p.Hir.regions;
  !m + 1

let create n =
  {
    entered = Array.make n 0;
    trips = Array.make n 0;
    cross_raw = Array.make n false;
    accesses = Array.make n 0;
    misses = Array.make n 0;
    dyn = Array.make n 0;
    total = 0;
  }

(* The interpreter's loop stack, innermost loop at [depth - 1]. One
   counter stamps every loop entry and every iteration, so all of a loop
   instance's iteration stamps exceed its entry stamp and every stamp of
   an earlier instance is below it. [last_write.(d)] maps an address to
   the stamp of the depth-[d] iteration that last stored there: a load
   sees a cross-iteration RAW at depth [d] when that stamp is above the
   instance's entry stamp (written in this instance) and is not the
   current iteration's. Re-entering a loop therefore clears nothing, and
   one flat array per depth, allocated when the depth is first reached,
   serves every loop instance at that depth. *)
type stack = {
  mutable depth : int;
  mutable sids : int array;
  mutable entry : int array;
  mutable iter : int array;
  mutable last_write : int array array;
  mutable clock : int;
  mem_words : int;
}

let push s sid =
  let d = s.depth in
  if d = Array.length s.sids then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    s.sids <- grow s.sids 0;
    s.entry <- grow s.entry 0;
    s.iter <- grow s.iter 0;
    s.last_write <- grow s.last_write [||]
  end;
  if Array.length s.last_write.(d) = 0 then
    s.last_write.(d) <- Array.make s.mem_words 0;
  s.clock <- s.clock + 1;
  s.sids.(d) <- sid;
  s.entry.(d) <- s.clock;
  s.iter.(d) <- s.clock;
  s.depth <- d + 1

let collect_run ?(cache = Voltron_mem.Coherence.default_config) ?max_steps
    (p : Hir.program) =
  let t = create (sid_bound p) in
  let l1 = Cache.create ~sets:cache.l1d_sets ~ways:cache.l1d_ways in
  let line_words = cache.line_words in
  let s =
    {
      depth = 0;
      sids = Array.make 8 0;
      entry = Array.make 8 0;
      iter = Array.make 8 0;
      last_write = Array.make 8 [||];
      clock = 0;
      mem_words = max 1 (Voltron_ir.Layout.mem_size (Voltron_ir.Layout.compute p));
    }
  in
  let touch_cache sid addr =
    t.accesses.(sid) <- t.accesses.(sid) + 1;
    let line = addr / line_words in
    match Cache.access l1 line with
    | Some _ -> ()
    | None ->
      t.misses.(sid) <- t.misses.(sid) + 1;
      ignore (Cache.insert l1 line Cache.E)
  in
  let on_load ~sid ~arr:_ ~addr =
    touch_cache sid addr;
    for d = 0 to s.depth - 1 do
      let w = s.last_write.(d).(addr) in
      if w > s.entry.(d) && w <> s.iter.(d) then t.cross_raw.(s.sids.(d)) <- true
    done
  in
  let on_store ~sid ~arr:_ ~addr =
    touch_cache sid addr;
    for d = 0 to s.depth - 1 do
      s.last_write.(d).(addr) <- s.iter.(d)
    done
  in
  let events =
    {
      Interp.on_stmt = (fun ~sid -> t.dyn.(sid) <- t.dyn.(sid) + 1);
      on_load;
      on_store;
      on_loop_enter =
        (fun ~sid ->
          t.entered.(sid) <- t.entered.(sid) + 1;
          push s sid);
      on_loop_iter =
        (fun ~sid:_ ~iter:_ ->
          s.clock <- s.clock + 1;
          s.iter.(s.depth - 1) <- s.clock);
      on_loop_exit =
        (fun ~sid ~trips ->
          t.trips.(sid) <- t.trips.(sid) + trips;
          s.depth <- s.depth - 1);
    }
  in
  let result = Interp.run ~events ?max_steps p in
  t.total <- Array.fold_left ( + ) 0 t.dyn;
  (t, result)

let collect ?cache ?max_steps p = fst (collect_run ?cache ?max_steps p)

(* --- Static (profile-free) synthesis ------------------------------------------ *)

module Absint = Voltron_absint.Absint
module Dom = Voltron_absint.Dom

let iround x =
  if Float.is_finite x then int_of_float (Float.round x) else max_int / 2

(* Conservative static stand-in for the observed cross-iteration RAW set:
   flag a loop when some (store, load) pair on one array can collide
   across iterations — affine verdict May_cross/Unknown and the abstract
   index sets not disjoint. Loops the profile would clear dynamically may
   stay flagged (costing parallelism, never correctness). *)
let static_cross_raw (sum : Absint.summary) (cross_raw : bool array)
    (p : Voltron_ir.Hir.program) =
  let flag_loop loop_sid (loop : Voltron_ir.Hir.for_loop) =
    let var = loop.Voltron_ir.Hir.var in
    let body = loop.Voltron_ir.Hir.body in
    let forms = Affine.index_forms ~loop_vars:[ var ] body in
    let form_of sid =
      match Hashtbl.find_opt forms sid with Some f -> f | None -> None
    in
    let loads = ref [] and stores = ref [] in
    Voltron_ir.Hir.iter_stmts
      (fun ({ Voltron_ir.Hir.sid; node } : Voltron_ir.Hir.stmt) ->
        match node with
        | Voltron_ir.Hir.Assign (_, Voltron_ir.Hir.Load (arr, _)) ->
          loads := (sid, arr) :: !loads
        | Voltron_ir.Hir.Store (arr, _, _) -> stores := (sid, arr) :: !stores
        | Voltron_ir.Hir.Assign _ | Voltron_ir.Hir.If _ | Voltron_ir.Hir.For _
        | Voltron_ir.Hir.Do_while _ -> ())
      body;
    let may_collide (sid_w, arr_w) (sid_l, arr_l) =
      arr_w = arr_l
      && (match Affine.cross_iteration_alias ~var (form_of sid_w) (form_of sid_l) with
         | Affine.Never | Affine.Same_iteration_only -> false
         | Affine.May_cross | Affine.Unknown -> (
           match (Absint.index_dom sum sid_w, Absint.index_dom sum sid_l) with
           | Some iw, Some il -> Dom.may_equal iw il
           | _ -> true))
    in
    if List.exists (fun w -> List.exists (may_collide w) !loads) !stores then
      cross_raw.(loop_sid) <- true
  in
  List.iter
    (fun (r : Voltron_ir.Hir.region) ->
      Voltron_ir.Hir.iter_stmts
        (fun ({ Voltron_ir.Hir.sid; node } : Voltron_ir.Hir.stmt) ->
          match node with
          | Voltron_ir.Hir.For loop -> flag_loop sid loop
          | Voltron_ir.Hir.Assign _ | Voltron_ir.Hir.Store _ | Voltron_ir.Hir.If _
          | Voltron_ir.Hir.Do_while _ -> ())
        r.Voltron_ir.Hir.stmts)
    p.Voltron_ir.Hir.regions

let of_static ?(cache = Voltron_mem.Coherence.default_config)
    ?(summary : Absint.summary option) (p : Voltron_ir.Hir.program) =
  let sum = match summary with Some s -> s | None -> Absint.analyze p in
  let t = create (sid_bound p) in
  List.iter
    (fun (li : Absint.loop_info) ->
      t.entered.(li.Absint.li_sid) <- iround li.Absint.li_enters;
      t.trips.(li.Absint.li_sid) <-
        iround (li.Absint.li_enters *. li.Absint.li_trip_est))
    (Absint.loops sum);
  static_cross_raw sum t.cross_raw p;
  let l1_words = cache.Voltron_mem.Coherence.l1d_sets
                 * cache.Voltron_mem.Coherence.l1d_ways
                 * cache.Voltron_mem.Coherence.line_words
  in
  let line = float_of_int cache.Voltron_mem.Coherence.line_words in
  List.iter
    (fun (s : Absint.site) ->
      let accesses = iround s.Absint.s_count in
      if accesses > 0 then begin
        let d = s.Absint.s_index in
        let size = p.Voltron_ir.Hir.arrays.(s.Absint.s_arr).Voltron_ir.Hir.size in
        let width =
          if Dom.is_bot d then 1
          else if d.Dom.lo = min_int || d.Dom.hi = max_int then size
          else min size (d.Dom.hi - d.Dom.lo + 1)
        in
        let rate =
          if width <= l1_words then
            (* Fits in L1: cold misses on first touch of each line. *)
            Float.min 1.
              (ceil (float_of_int width /. line) /. Float.max 1. s.Absint.s_count)
          else
            (* Streams through: a miss every line/stride accesses. *)
            let stride = if Dom.is_bot d || d.Dom.m = 0 then 1 else max 1 d.Dom.m in
            Float.min 1. (float_of_int stride /. line)
        in
        t.accesses.(s.Absint.s_sid) <- accesses;
        t.misses.(s.Absint.s_sid) <- iround (rate *. float_of_int accesses)
      end)
    (Absint.sites sum);
  List.iter
    (fun (r : Voltron_ir.Hir.region) ->
      Voltron_ir.Hir.iter_stmts
        (fun (st : Voltron_ir.Hir.stmt) ->
          let n = iround (Absint.count sum st.Voltron_ir.Hir.sid) in
          t.dyn.(st.Voltron_ir.Hir.sid) <- (if n > 0 then n else 0))
        r.Voltron_ir.Hir.stmts)
    p.Voltron_ir.Hir.regions;
  t.total <- Array.fold_left ( + ) 0 t.dyn;
  t

let get a sid = if sid >= 0 && sid < Array.length a then a.(sid) else 0

let instances t sid = get t.entered sid

let avg_trip t sid =
  let n = get t.entered sid in
  if n > 0 then float_of_int t.trips.(sid) /. float_of_int n else 0.

let has_cross_raw t sid =
  sid >= 0 && sid < Array.length t.cross_raw && t.cross_raw.(sid)

let miss_rate t sid =
  let n = get t.accesses sid in
  if n > 0 then float_of_int t.misses.(sid) /. float_of_int n else 0.

let access_count t sid = get t.accesses sid

let dyn_count t sid = get t.dyn sid

let total_dyn t = t.total
