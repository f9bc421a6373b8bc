(** Nondeterministic finite automata over event/guard labels.

    Produced by Thompson construction from {!Ast} expressions
    ({!Compile.thompson}). Labels are either a real event ([LEv]) or a mask
    guard ([LTrue m]) that is crossed when mask [m] evaluates to true; the
    [False] pseudo-event has no NFA edges — the subset construction treats
    it as "drop every position waiting on this guard" (see {!Compile}). *)

type label = LEv of int | LTrue of int

type t = {
  nstates : int;
  start : int;
  accept : int;
  eps : int list array;  (** epsilon successors per state *)
  edges : (label * int) list array;  (** labelled successors per state *)
}

module Builder : sig
  type nfa := t
  type t

  val create : unit -> t
  val fresh_state : t -> int
  val add_eps : t -> int -> int -> unit
  val add_edge : t -> int -> label -> int -> unit
  val freeze : t -> start:int -> accept:int -> nfa
end

module IntSet : Set.S with type elt = int

val closure : t -> IntSet.t -> IntSet.t
(** Epsilon closure. *)

val move_event : t -> IntSet.t -> int -> IntSet.t
(** Positions reached by consuming event [e] (not closed). *)

val guard_targets : t -> IntSet.t -> int -> IntSet.t
(** Raw successors of positions waiting on guard [m] (not closed). *)

val non_waiting : t -> IntSet.t -> int -> IntSet.t
(** Positions of the set without a [LTrue m] edge — the survivors of a
    [False m] pseudo-event, and the transparent stayers of a [True m].

    NB: the caller must {e not} re-close this set. The guard hangs off its
    subexpression's exit node, which is epsilon-reachable from surviving
    positions, so re-closing would resurrect the guarded thread a [False]
    just killed. Pseudo-events consume no input; the set was closed when
    the triggering event was consumed, and the next real-event move closes
    again. *)

val pending_masks : t -> IntSet.t -> int list
(** Mask ids some position in the set is waiting on, ascending. *)

val reachable : t -> IntSet.t
(** States reachable from [start] over epsilon and labelled edges — a
    graph over-approximation (it ignores guard consistency), which is the
    safe direction for pruning. *)
