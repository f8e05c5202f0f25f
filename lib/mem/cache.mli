(** Set-associative cache directory: tags, MOESI states and LRU order.

    Holds no data (see {!Memory}); it is the timing/state half of the
    hierarchy. Addresses given to this module are *line* addresses (word
    address divided by the line size — callers do the division). *)

type state = M | O | E | S | I

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val sets : t -> int
val ways : t -> int

val find : t -> int -> state option
(** [find t line] is the line's state if present and valid (not [I]);
    does not touch LRU. *)

val access : t -> int -> state option
(** [find], and on a hit also mark the line most-recently used: a use of
    the line as the simulated cache sees it. *)

val set_state : t -> int -> state -> unit
(** Change a present line's state. Raises [Not_found] if absent. [I]
    invalidates. *)

val insert : t -> int -> state -> (int * state) option
(** [insert t line st] allocates [line] (MRU) and returns the evicted
    victim's line address and state, if a valid line was displaced. The line
    must not already be present. *)

val invalidate : t -> int -> unit
(** Drop the line if present. *)

val valid_lines : t -> (int * state) list
(** All valid lines with their states, for invariant checking. *)

val pp_state : Format.formatter -> state -> unit
