(** Event-expression compiler: AST → NFA → deterministic trigger FSM.

    Follows §5.1: the well-known regular-expression construction compiles
    the expression to an NFA; the subset construction yields the
    deterministic machine stored in the class's type descriptor. Unless the
    expression was anchored with [^], the compiler prepends [( *any ),] so the
    machine searches for matching subsequences anywhere in the object's
    event stream (§5.1.1).

    Masks extend the construction per §5.1.2: [e & p] compiles as [e]
    followed by a guard edge crossed on the [True] pseudo-event of [p].
    During subset construction pseudo-events are {e transparent} to
    positions that do not mention them: on [True(p)] guarded positions
    advance and everything else stays; on [False(p)] guarded positions die
    and everything else stays. This reproduces Figure 1 exactly — the
    [False] edge from the mask state returns to the scanning state rather
    than killing the whole match.

    The extension operators [!] (complement) and [&&] (intersection) are
    compiled by determinising the (mask-free) operand over the full
    alphabet, complementing/productising, and embedding the result back as
    an NFA fragment; {!Unsupported} is raised when an operand contains a
    mask. *)

exception Unsupported of string

val thompson : alphabet:int list -> Ast.t -> Nfa.t
(** Construct the NFA; [alphabet] (the class's declared events) is the
    expansion of [any]. Raises [Invalid_argument] if the expression
    mentions an event outside [alphabet]; raises {!Unsupported} for masked
    [!]/[&&] operands. *)

val determinize : alphabet:int list -> Nfa.t -> Fsm.t
(** Subset construction with mask transparency. States are numbered in
    breadth-first discovery order, so equal inputs yield identical
    machines. *)

val compile : alphabet:int list -> ?anchored:bool -> Ast.t -> Fsm.t
(** [thompson] + [determinize], with the implicit [( *any ),] prefix unless
    [anchored] (default false). *)

val of_source :
  ?raw:bool -> Parser.env -> alphabet:int list -> string -> (bool * Ast.t * Fsm.t, string) result
(** The one path from trigger source text to a run-time machine: parse
    under [env], {!compile} over [alphabet] plus every event the expression
    names, then (unless [raw]) [Minimize.simplify], [prune_mask_states] and
    [trim]. Returns [(anchored, expr, fsm)], or the parse error or
    {!Unsupported} message. *)
