module Fault = Voltron_fault.Fault

type payload = Value of int | Start of int

type latch = { mutable filled : bool; mutable value : int; mutable time : int }

(* In-flight delivery state. [Clean] messages arrive at [ready_time];
   [Lost]/[Corrupt] ones are injected faults (or an overflow NACK) that the
   sender retransmits at [retry_at] with exponential backoff. *)
type condition = Clean | Lost | Corrupt

type message = {
  msg_src : int;
  msg_dst : int;
  mutable msg_payload : payload;  (** mutable only for the tamper backdoor *)
  msg_sent : int;  (** enqueue cycle — the tail of a send→recv blame edge *)
  mutable ready_time : int;  (** cycle at which the receive queue can deliver *)
  seq : int;  (** global enqueue order *)
  mutable condition : condition;
  mutable attempt : int;  (** 1-based transmission count *)
  mutable retry_at : int;  (** next retransmission cycle when not [Clean] *)
}

type bcast_slot = { mutable b_value : int; mutable b_time : int; mutable b_src : int }

type stats = {
  mutable msgs_sent : int;
  mutable total_latency : int;
  mutable max_occupancy : int;
  mutable retries : int;  (** retransmissions of lost/corrupted/NACKed msgs *)
  mutable nacks : int;  (** parity NACKs + receive-queue overflow NACKs *)
}

(* Runtime sanitizer events: the network announces every enqueue, delivery
   and latch fill/drain so an external model can mirror the protocol and
   cross-check conservation, FIFO order and payload integrity. *)
type event =
  | Ev_send of { ev_src : int; ev_dst : int; ev_seq : int; ev_payload : payload }
  | Ev_deliver of {
      ev_src : int;
      ev_dst : int;
      ev_seq : int;
      ev_payload : payload;
      ev_sent : int;  (** the delivered message's enqueue cycle *)
    }
  | Ev_put of { ev_src : int; ev_dst : int; ev_dir : Voltron_isa.Inst.dir }
      (** successful latch fill; [ev_dir] is the PUT direction at the source *)
  | Ev_get of { ev_core : int; ev_dir : Voltron_isa.Inst.dir }
      (** successful latch drain at the consuming core *)

type t = {
  net_mesh : Mesh.t;
  n : int;  (** cores *)
  capacity : int;
  hop_lat : int array;  (** [src * n + dst]: [hops * hop_cost] cycles *)
  (* latches.(core).(dir_index): value arriving at [core] from direction. *)
  latches : latch array array;
  mutable broadcast : bcast_slot option;
  consumed_bcast : bool array;  (** per-core: has this core taken the current bcast *)
  (* One FIFO per (src, dst, class), indexed by [chan]: the undelivered
     messages of that channel in seq order, so its head is the only one
     that may deliver. *)
  channels : message Queue.t array;
  mutable count : int;  (** messages in flight *)
  starts_to : int array;  (** per destination: [Start] messages in flight *)
  (* The not-[Clean] messages, newest first. Only a fresh message (the
     highest seq) or one already listed turns not-[Clean], so prepending
     keeps the list in descending seq order. *)
  mutable unclean : message list;
  mutable resent : int;  (** in-flight messages transmitted more than once *)
  mutable next_seq : int;
  net_stats : stats;
  faults : Fault.t option;
  (* Each event site matches on this before it builds its event record, so
     a detached network allocates none. *)
  mutable monitor : (event -> unit) option;
}

type put_error = Off_mesh | Latch_full of int

type send_error = Bad_destination of int | Channel_full

type error =
  | Put_failed of { src_core : int; error : put_error }
  | Send_failed of send_error

(* Single rendering point for typed network errors: the machine's watchdog
   diagnosis and the static checker's diagnostics both go through here, so
   an error reads the same whether it was predicted or hit at runtime. *)
let pp_error ppf = function
  | Put_failed { src_core; error = Off_mesh } ->
    Format.fprintf ppf "put: core %d has no neighbour in that direction" src_core
  | Put_failed { error = Latch_full dst; _ } ->
    Format.fprintf ppf "put: latch into core %d still full (unconsumed PUT)" dst
  | Send_failed (Bad_destination dst) ->
    Format.fprintf ppf "send: bad destination core %d" dst
  | Send_failed Channel_full -> Format.pp_print_string ppf "send: channel full"

let error_to_string e = Format.asprintf "%a" pp_error e

let put_error_to_string ~src_core error =
  error_to_string (Put_failed { src_core; error })

let send_error_to_string e = error_to_string (Send_failed e)

let dir_index (d : Voltron_isa.Inst.dir) =
  match d with
  | Voltron_isa.Inst.North -> 0
  | Voltron_isa.Inst.South -> 1
  | Voltron_isa.Inst.East -> 2
  | Voltron_isa.Inst.West -> 3

let create ?faults ?(hop_cost = 1) net_mesh ~receive_capacity =
  if hop_cost < 0 then invalid_arg "Operand_network.create: negative hop_cost";
  let n = Mesh.n_cores net_mesh in
  {
    net_mesh;
    n;
    capacity = receive_capacity;
    hop_lat =
      Array.init (n * n) (fun i -> Mesh.hops net_mesh (i / n) (i mod n) * hop_cost);
    latches =
      Array.init n (fun _ ->
          Array.init 4 (fun _ -> { filled = false; value = 0; time = 0 }));
    broadcast = None;
    consumed_bcast = Array.make n true;
    channels = Array.init (2 * n * n) (fun _ -> Queue.create ());
    count = 0;
    starts_to = Array.make n 0;
    unclean = [];
    resent = 0;
    next_seq = 0;
    net_stats =
      { msgs_sent = 0; total_latency = 0; max_occupancy = 0; retries = 0; nacks = 0 };
    faults;
    monitor = None;
  }

let mesh t = t.net_mesh

let stats t = t.net_stats

let set_monitor t f = t.monitor <- Some f

let in_flight_count t = t.count

let latency t ~src ~dst = t.hop_lat.((src * t.n) + dst)

(* --- Direct mode --------------------------------------------------------- *)

let put t ~now ~src_core dir value =
  match Mesh.neighbour t.net_mesh src_core dir with
  | None -> Error Off_mesh
  | Some dst ->
    let latch = t.latches.(dst).(dir_index (Voltron_isa.Inst.opposite dir)) in
    if latch.filled then Error (Latch_full dst)
    else begin
      latch.filled <- true;
      latch.value <- value;
      latch.time <- now;
      (match t.monitor with
      | None -> ()
      | Some f -> f (Ev_put { ev_src = src_core; ev_dst = dst; ev_dir = dir }));
      Ok ()
    end

let get t ~now ~core dir =
  let latch = t.latches.(core).(dir_index dir) in
  if not latch.filled then None
  else if latch.time > now then None
  else begin
    (* With the lock-step stall bus, a paired PUT/GET always executes in the
       same cycle; an older timestamp would mean the cores de-synchronised. *)
    if latch.time < now then
      failwith
        (Printf.sprintf
           "get: core %d read a stale direct-mode latch (put at %d, get at %d)"
           core latch.time now);
    latch.filled <- false;
    (match t.monitor with
    | None -> ()
    | Some f -> f (Ev_get { ev_core = core; ev_dir = dir }));
    Some latch.value
  end

let bcast t ~now ~src_core value =
  t.broadcast <- Some { b_value = value; b_time = now; b_src = src_core };
  Array.fill t.consumed_bcast 0 (Array.length t.consumed_bcast) false;
  t.consumed_bcast.(src_core) <- true

(* Cycle at which the current broadcast becomes visible at [core]. *)
let bcast_arrival t slot core = slot.b_time + latency t ~src:slot.b_src ~dst:core

let getb t ~now ~core =
  match t.broadcast with
  | None -> None
  | Some slot ->
    if t.consumed_bcast.(core) || now < bcast_arrival t slot core then None
    else begin
      t.consumed_bcast.(core) <- true;
      Some slot.b_value
    end

let getb_ready t ~now ~core =
  match t.broadcast with
  | None -> false
  | Some slot ->
    (not t.consumed_bcast.(core)) && now >= bcast_arrival t slot core

let getb_wake t ~core =
  match t.broadcast with
  | None -> max_int
  | Some slot ->
    if t.consumed_bcast.(core) then max_int else bcast_arrival t slot core

(* --- Queue mode ---------------------------------------------------------- *)

(* Retransmission must not reorder a (src, dst) channel: RECV consumes by
   sender id only, so FIFO within a channel is program semantics, not just
   timing. Two payload classes share a channel without ordering constraints
   (a Start is consumed only by a sleeping core), so the unit of ordering is
   (src, dst, class), and each such channel is its own FIFO. Channels into
   one destination are adjacent, so a Start scan walks a contiguous run. *)
let chan t ~src ~dst ~start = (((dst * t.n) + src) * 2) + Bool.to_int start

let on_mesh t c = c >= 0 && c < t.n

let is_start = function Start _ -> true | Value _ -> false

(* Only a channel's head may deliver. In a fault-free run its ready order
   is its seq order, so this never holds back a ready message. *)
let head_ready q ~now =
  (not (Queue.is_empty q))
  &&
  let m = Queue.peek q in
  m.condition = Clean && m.ready_time <= now

let pending t ~src ~dst =
  if on_mesh t src && on_mesh t dst then
    let i = chan t ~src ~dst ~start:false in
    Queue.length t.channels.(i) + Queue.length t.channels.(i + 1)
  else 0

(* (Re)launch [m] at [now], rolling fault injection on each transmission.
   After [max_retries] retransmissions the delivery is forced clean, so a
   message occupies its channel for a bounded time even at rate 1.0. *)
let transmit t ~now m =
  m.ready_time <- now + 1 + latency t ~src:m.msg_src ~dst:m.msg_dst;
  m.condition <- Clean;
  match t.faults with
  | None -> ()
  | Some f ->
    let cfg = Fault.config f in
    if m.attempt <= cfg.Fault.max_retries then
      if Fault.roll_drop f then begin
        (* Sender-side ack timeout: no arrival, retry after backoff. *)
        m.condition <- Lost;
        m.retry_at <- now + Fault.backoff f ~attempt:m.attempt
      end
      else if Fault.roll_corrupt f then begin
        (* Parity fails on arrival; the NACK triggers a backoff'd resend. *)
        m.condition <- Corrupt;
        m.retry_at <- m.ready_time + Fault.backoff f ~attempt:m.attempt
      end

let enqueue t ~now ~src ~dst payload =
  let lat = latency t ~src ~dst in
  let msg =
    {
      msg_src = src;
      msg_dst = dst;
      msg_payload = payload;
      msg_sent = now;
      ready_time = now + 1 + lat;
      seq = t.next_seq;
      condition = Clean;
      attempt = 1;
      retry_at = 0;
    }
  in
  t.next_seq <- t.next_seq + 1;
  Queue.add msg t.channels.(chan t ~src ~dst ~start:(is_start payload));
  t.count <- t.count + 1;
  if is_start payload then t.starts_to.(dst) <- t.starts_to.(dst) + 1;
  let s = t.net_stats in
  s.msgs_sent <- s.msgs_sent + 1;
  s.total_latency <- s.total_latency + 2 + lat;
  s.max_occupancy <- Int.max s.max_occupancy t.count;
  (match t.monitor with
  | None -> ()
  | Some f ->
    f (Ev_send { ev_src = src; ev_dst = dst; ev_seq = msg.seq; ev_payload = payload }));
  msg

let send t ~now ~src ~dst payload =
  if not (on_mesh t dst) then Error (Bad_destination dst)
  else if pending t ~src ~dst >= t.capacity then Error Channel_full
  else begin
    let msg = enqueue t ~now ~src ~dst payload in
    transmit t ~now msg;
    if msg.condition <> Clean then t.unclean <- msg :: t.unclean;
    Ok ()
  end

let defer t ~now ~src ~dst payload =
  if not (on_mesh t dst) then invalid_arg "Net.defer";
  let msg = enqueue t ~now ~src ~dst payload in
  (* Receive-queue overflow: the entry NACK parks the message at the sender,
     which retries on the same backoff schedule as a lost message. *)
  let cfg =
    match t.faults with Some f -> Fault.config f | None -> Fault.disabled
  in
  msg.condition <- Lost;
  msg.retry_at <- now + Fault.backoff_of cfg ~attempt:msg.attempt;
  t.unclean <- msg :: t.unclean;
  t.net_stats.nacks <- t.net_stats.nacks + 1

(* Retransmit the expired messages of [unclean] newest first, so a
   fault-injected run draws its drop and corrupt rolls in descending seq
   order. Returns whether any message came back [Clean]. *)
let rec retransmit t now cleaned = function
  | [] -> cleaned
  | m :: rest ->
    let cleaned =
      if m.retry_at > now then cleaned
      else begin
        let s = t.net_stats in
        s.retries <- s.retries + 1;
        if m.condition = Corrupt then s.nacks <- s.nacks + 1;
        if m.attempt = 1 then t.resent <- t.resent + 1;
        m.attempt <- m.attempt + 1;
        transmit t ~now m;
        cleaned || m.condition = Clean
      end
    in
    retransmit t now cleaned rest

let service t ~now =
  match t.unclean with
  | [] -> ()
  | l ->
    if retransmit t now false l then
      t.unclean <- List.filter (fun m -> m.condition <> Clean) l

(* Pop the head of channel [i], keeping the running counts in step. *)
let pop t i =
  let m = Queue.take t.channels.(i) in
  t.count <- t.count - 1;
  if m.attempt > 1 then t.resent <- t.resent - 1;
  if is_start m.msg_payload then
    t.starts_to.(m.msg_dst) <- t.starts_to.(m.msg_dst) - 1;
  m

let deliver t i =
  let m = pop t i in
  (match t.monitor with
  | None -> ()
  | Some f ->
    f
      (Ev_deliver
         { ev_src = m.msg_src; ev_dst = m.msg_dst; ev_seq = m.seq;
           ev_payload = m.msg_payload; ev_sent = m.msg_sent }));
  m.msg_payload

let recv_ready t ~now ~core ~sender =
  on_mesh t sender
  && head_ready t.channels.(chan t ~src:sender ~dst:core ~start:false) ~now

let recv t ~now ~core ~sender =
  if not (recv_ready t ~now ~core ~sender) then None
  else
    match deliver t (chan t ~src:sender ~dst:core ~start:false) with
    | Value v -> Some v
    | Start _ -> assert false

(* The sleeping core takes the oldest deliverable Start over all senders. *)
let take_start t ~now ~core =
  if t.starts_to.(core) = 0 then None
  else begin
    let best = ref (-1) and best_seq = ref max_int in
    for src = 0 to t.n - 1 do
      let i = chan t ~src ~dst:core ~start:true in
      let q = t.channels.(i) in
      if head_ready q ~now && (Queue.peek q).seq < !best_seq then begin
        best := i;
        best_seq := (Queue.peek q).seq
      end
    done;
    if !best < 0 then None
    else
      match deliver t !best with
      | Start addr -> Some addr
      | Value _ -> assert false
  end

(* --- Wake queries (stall fast-forward) ------------------------------------ *)

(* Earliest [ready_time] on a channel, whatever its messages' condition;
   [max_int] when it is empty (the wait is event-driven). Enqueue stamps
   [now + 1 + latency], nondecreasing along a channel, so unless a
   retransmission has restamped an in-flight message the head holds the
   minimum — always so in the fault-free runs the machine fast-forwards. *)
let channel_wake t i =
  let q = t.channels.(i) in
  if Queue.is_empty q then max_int
  else if t.resent = 0 then (Queue.peek q).ready_time
  else Queue.fold (fun acc m -> Int.min acc m.ready_time) max_int q

let next_value_ready t ~core ~sender =
  if not (on_mesh t sender) then max_int
  else channel_wake t (chan t ~src:sender ~dst:core ~start:false)

let next_start_ready t ~core =
  let w = ref max_int in
  if t.starts_to.(core) > 0 then
    for src = 0 to t.n - 1 do
      w := Int.min !w (channel_wake t (chan t ~src ~dst:core ~start:true))
    done;
  !w

(* --- Cold paths: diagnosis and test backdoors ------------------------------ *)

(* Every undelivered message, in seq order. *)
let in_flight t =
  Array.fold_left (fun acc q -> Queue.fold (fun acc m -> m :: acc) acc q) [] t.channels
  |> List.sort (fun a b -> compare a.seq b.seq)

let in_flight_summary t =
  List.map
    (fun m ->
      let payload =
        match m.msg_payload with
        | Value v -> Printf.sprintf "value %d" v
        | Start a -> Printf.sprintf "start @%d" a
      in
      let state =
        match m.condition with
        | Clean -> Printf.sprintf "deliverable @%d" m.ready_time
        | Lost ->
          Printf.sprintf "lost, retry @%d (attempt %d)" m.retry_at m.attempt
        | Corrupt ->
          Printf.sprintf "corrupt, retry @%d (attempt %d)" m.retry_at m.attempt
      in
      (m.msg_src, m.msg_dst, payload ^ ", " ^ state))
    (in_flight t)

let idle t =
  t.count = 0
  && Array.for_all (fun row -> Array.for_all (fun l -> not l.filled) row) t.latches

let test_tamper_payload t =
  match List.find_opt (fun m -> not (is_start m.msg_payload)) (in_flight t) with
  | Some ({ msg_payload = Value v; _ } as m) ->
    m.msg_payload <- Value (v lxor 1);
    true
  | Some { msg_payload = Start _; _ } | None -> false

(* The oldest message is necessarily the head of its channel. *)
let test_drop t =
  match in_flight t with
  | [] -> false
  | m :: _ ->
    let i = chan t ~src:m.msg_src ~dst:m.msg_dst ~start:(is_start m.msg_payload) in
    ignore (pop t i);
    t.unclean <- List.filter (fun m' -> m' != m) t.unclean;
    true
