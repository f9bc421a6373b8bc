(** Run-time interning of basic events — the paper's [eventRep] (§5.2).

    Because of separate compilation, Ode cannot assign event numbers at
    compile time; instead every [eventRep] constructor consults a run-time
    table, assigning the next dense integer to an unseen (class, event) pair
    and reusing the existing one otherwise. This module is that table.

    Globally unique integers (rather than per-class numbering) were a §6
    lesson: per-class numbers collide under multiple inheritance, and dense
    global ids make the sparse FSM transition lists cheap. The baseline
    {!Ode_baselines.Sentinel_repr} represents events as string triples
    instead, for the cost comparison of §7 (experiment T2). *)

type basic =
  | Before of string  (** before a member function call *)
  | After of string  (** after a member function call *)
  | User of string  (** application-posted event, e.g. [BigBuy] *)
  | Before_tcomplete  (** just before the transaction prepares to commit *)
  | Before_tabort  (** just before an explicitly requested abort *)
  | After_tcommit  (** extension: phoenix-transaction event (§6) *)

type t

val create : unit -> t

val id : t -> cls:string -> basic -> int
(** Intern: returns the unique integer for this (class, event) pair,
    assigning the next one on first sight. *)

val find : t -> cls:string -> basic -> int option
(** Lookup without assignment. *)

val describe : t -> int -> (string * basic) option
(** Reverse lookup. *)

val name_of_id : t -> int -> string
(** Human-readable "cls:event" for FSM printing; "e<i>" if unknown. *)

val count : t -> int
(** Number of distinct events interned. *)

val metrics : t -> Ode_util.Metrics.t
(** Counter [lookups] (total [id]/[find] calls: posting-cost accounting
    for T2); gauge [events] ({!count}). *)

type snapshot = ((string * basic) * int) list
(** A full id assignment, sorted by id — the {!Ode_parallel} agreement
    check: every shard defines the schema on a fresh table, concurrently,
    and the same definitions in the same order assign the same ids; the
    fleet compares each shard's snapshot with shard 0's once all are
    built, so global ids agree without a shared table or a lock. *)

val snapshot : t -> snapshot

val of_snapshot : snapshot -> t
(** A fresh table pre-registered with the given assignment. Raises
    [Invalid_argument] on a duplicate key or id. *)

val equal_snapshot : snapshot -> snapshot -> bool

val basic_equal : basic -> basic -> bool
val pp_basic : Format.formatter -> basic -> unit
val basic_to_string : basic -> string

val basic_of_string : string -> basic option
(** Inverse of {!basic_to_string}: parses ["after Buy"], ["before Ship"],
    ["before tcomplete"], ["after tcommit"], ["BigBuy"]. [None] on
    malformed input. *)
