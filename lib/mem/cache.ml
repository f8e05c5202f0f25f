type state = M | O | E | S | I

(* Two flat int arrays, one slot per (set, way) at [set * ways + way]:

   - [tags.(s)] packs [line lsl 3 lor code], where [code] is the state's
     non-zero code below; 0 means the way is invalid.
   - [age.(s)] is the way's LRU stamp; larger is more recent.

   Stamps come from one cache-wide counter [tick]. Within a set they are
   distinct and rise strictly with recency — the initial stamps decrease
   by way index (way 0 most recent) and every promote takes a fresh stamp
   larger than any in the cache — so "minimum age" names the same victim
   a per-set counter would, and the whole cache is three heap blocks
   however many sets it has. *)
type t = {
  n_sets : int;
  n_ways : int;
  tags : int array;
  age : int array;
  mutable tick : int;
}

let code = function I -> 0 | M -> 1 | O -> 2 | E -> 3 | S -> 4

let state_of_code = function
  | 1 -> M
  | 2 -> O
  | 3 -> E
  | 4 -> S
  | _ -> I

(* A valid tag's state as [find]'s result: one shared [Some] per state,
   so a probe allocates nothing. *)
let some_m = Some M
let some_o = Some O
let some_e = Some E
let some_s = Some S

let some_state tag =
  match tag land 7 with 1 -> some_m | 2 -> some_o | 3 -> some_e | _ -> some_s

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~sets ~ways =
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    n_sets = sets;
    n_ways = ways;
    tags = Array.make (sets * ways) 0;
    age = Array.init (sets * ways) (fun s -> ways - 1 - (s mod ways));
    tick = ways - 1;
  }

let sets t = t.n_sets
let ways t = t.n_ways

let base t line = (line land (t.n_sets - 1)) * t.n_ways

(* Slot of [line] among the valid ways in [s, stop), or -1. *)
let rec find_slot tags line s stop =
  if s >= stop then -1
  else
    let tag = tags.(s) in
    if tag land 7 <> 0 && tag asr 3 = line then s
    else find_slot tags line (s + 1) stop

let lookup t line =
  let b = base t line in
  find_slot t.tags line b (b + t.n_ways)

(* First invalid slot in [s, stop), or -1. *)
let rec invalid_slot tags s stop =
  if s >= stop then -1
  else if tags.(s) land 7 = 0 then s
  else invalid_slot tags (s + 1) stop

(* Minimum-age slot in [s, stop), the lowest index on a tie. *)
let rec lru_slot age best s stop =
  if s >= stop then best
  else lru_slot age (if age.(s) < age.(best) then s else best) (s + 1) stop

let promote t s =
  t.tick <- t.tick + 1;
  t.age.(s) <- t.tick

let find t line =
  let s = lookup t line in
  if s < 0 then None else some_state t.tags.(s)

let access t line =
  let s = lookup t line in
  if s < 0 then None
  else begin
    promote t s;
    some_state t.tags.(s)
  end

let set_state t line st =
  let s = lookup t line in
  if s < 0 then raise Not_found;
  t.tags.(s) <- (line lsl 3) lor code st

let insert t line st =
  let b = base t line in
  let stop = b + t.n_ways in
  if find_slot t.tags line b stop >= 0 then
    invalid_arg "Cache.insert: line already present";
  (* Prefer an invalid way; otherwise evict the minimum-age (LRU) way. *)
  let s =
    let inv = invalid_slot t.tags b stop in
    if inv >= 0 then inv else lru_slot t.age b (b + 1) stop
  in
  let old = t.tags.(s) in
  let victim =
    if old land 7 = 0 then None else Some (old asr 3, state_of_code (old land 7))
  in
  t.tags.(s) <- (line lsl 3) lor code st;
  promote t s;
  victim

let invalidate t line =
  let s = lookup t line in
  if s >= 0 then t.tags.(s) <- 0

let valid_lines t =
  let acc = ref [] in
  for s = Array.length t.tags - 1 downto 0 do
    let tag = t.tags.(s) in
    if tag land 7 <> 0 then acc := (tag asr 3, state_of_code (tag land 7)) :: !acc
  done;
  !acc

let pp_state ppf st =
  Format.pp_print_string ppf
    (match st with M -> "M" | O -> "O" | E -> "E" | S -> "S" | I -> "I")
