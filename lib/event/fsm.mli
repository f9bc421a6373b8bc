(** Run-time trigger finite state machines (§5.4.3).

    The representation mirrors the paper's: an array of states, each with
    a state number, an accept flag, the mask(s) to evaluate in that state
    (a state with a non-empty pending list is a "mask state", drawn with
    [*] in Figure 1), and a {e sparse} array of transitions — the §6 lesson
    that dense two-dimensional transition arrays waste space and break down
    under multiple inheritance. Transitions are sorted by symbol and probed
    with binary search.

    [step] distinguishes three outcomes: [Goto s'] for a listed transition,
    [Stay] for an event outside the machine's alphabet ("Any event which
    does not appear in a state's Transition list is ignored", §5.4.3 — this
    is how base-class triggers ignore derived-class events), and [Dead] for
    an alphabet event with no transition, which can only happen in anchored
    ([^]) machines where nothing may be ignored. *)

module IntSet : Set.S with type elt = int

type step_result = Stay | Goto of int | Dead

type state = {
  statenum : int;
  accept : bool;
  pending : int list;  (** mask ids to evaluate on entry, ascending *)
  trans : (Sym.t * int) array;  (** sorted by {!Sym.compare} *)
}

type t = {
  states : state array;
  start : int;
  alphabet : IntSet.t;  (** interned event ids the machine reacts to *)
  mask_ids : IntSet.t;
  mutable live : Bytes.t option array;  (** lazily built by {!event_live} *)
}

val make : states:state array -> start:int -> alphabet:IntSet.t -> mask_ids:IntSet.t -> t
(** Validates state numbering, transition sorting and target ranges;
    raises [Invalid_argument] on malformed input. *)

val num_states : t -> int
val num_transitions : t -> int
val state : t -> int -> state
val is_accept : t -> int -> bool
val pending_masks : t -> int -> int list

val step : t -> int -> Sym.t -> step_result

val dead : int
(** The state number of a machine killed by a [Dead] move ([-1]). *)

val settle : ?on_move:(unit -> unit) -> t -> mask:(int -> bool) -> int -> int
(** The mask cascade of PostEvent (§5.4.5 step b): from [state], while the
    state evaluates masks, step on [MTrue m]/[MFalse m] for its first
    pending mask [m] as [mask m] answers. Re-entering a state already
    visited in this cascade stops it. Returns the settled state, or {!dead}
    when a mask move kills the machine. [on_move] runs once per [Goto]. *)

val advance :
  ?on_move:(unit -> unit) -> t -> state:int -> event:int -> mask:(int -> bool) -> step_result
(** One PostEvent move (§5.4.5 steps a–b): step [state] on the basic
    [event] and {!settle} the target. [Stay] when the machine ignores the
    event, [Dead] when the event or a mask kills it, [Goto s] when it moved
    and settled in [s]. Only a [Goto] into an accept state fires. *)

val event_live : t -> state:int -> event:int -> bool
(** [event_live t ~state ~event] is [false] exactly when posting [event]
    to a machine sitting in [state] is a guaranteed no-op: the step is
    [Stay], or a self-[Goto] into a maskless non-accept state (no mask
    re-evaluation, no re-fire — indistinguishable from [Stay] at the
    posting level). [Dead] moves, real moves, accept re-entries and
    mask-state re-entries are all live. Answers come from a lazily built
    per-state bitset over the alphabet's event-id range, so the hot-path
    cost is one byte load and a mask. Out-of-range states answer [false]. *)

val live_events : t -> int -> IntSet.t
(** All live events of a state ({!event_live} as a set, for tests). *)

val approx_bytes : t -> int
(** Rough memory footprint of the sparse representation, for the
    sparse-vs-dense comparison (T3). *)

val equivalent : t -> t -> bool
(** Behavioural equivalence by product construction: same alphabet, and
    from the start pair every reachable pair agrees on acceptance, pending
    masks, and successor behaviour (including [Dead]/[Stay]). Used to
    validate minimisation. *)

val pp : ?event_name:(int -> string) -> unit -> Format.formatter -> t -> unit
(** Figure-1-style textual transition table. *)

val to_dot : ?event_name:(int -> string) -> t -> string
(** Graphviz rendering (mask states drawn with a [*], accept states with a
    double circle). *)
