(** One registry of named integer values.

    Every layer registers its values once, when it is created, in a
    registry of its own; an owner {!attach}es its parts' registries under
    a prefix, so a session's registry reads [objects.reads], [rt.posts],
    [locks.blocks], … A value has a kind, which fixes how {!reset} and
    the cross-shard {!merge} treat it:

    - a {e counter} is monotonic, zeroed by {!reset}, summed by {!merge};
    - a {e gauge} is read at snapshot time, never reset, summed;
    - a {e peak} is a high-water value read at snapshot time, never
      reset, merged by [max];
    - a {e mean} is derived from two sibling keys after the merge, so a
      fleet's average is the merged sum over the merged count.

    A value that code branches on is state, not a metric: it may be
    exposed as a gauge, but reset never touches it.

    A counter is a cell bound at registration: {!incr} is a single field
    update, with no lookup by name, no closure and no allocation. *)

type counter

external incr : counter -> unit = "%incr"

val add : counter -> int -> unit

type t

val create : unit -> t

val counter : t -> string -> counter
(** Register a fresh counter cell (starting at 0) under [name]. *)

val gauge : t -> string -> (unit -> int) -> unit
val peak : t -> string -> (unit -> int) -> unit

val mean : t -> string -> sum:string -> count:string -> unit
(** [round (sum / count)] of the two sibling keys ([0] while [count] is
    0), recomputed from the merged values. *)

val attach : t -> ?prefix:string -> t -> unit
(** List [child]'s keys in [t], as [prefix.key] (bare with no prefix).
    Values are read through, not copied. *)

val reset : t -> unit
(** Zero every counter in [t] and in the registries attached to it. *)

type snapshot
(** Every value of a registry, with its kind, read at one moment. *)

val snapshot : t -> snapshot

val merge : snapshot list -> (string * int) list
(** Combine the snapshots of like registries (one per shard): counters
    and gauges are summed, peaks maxed, means recomputed. Sorted by key. *)

val values : t -> (string * int) list
(** [merge [snapshot t]]. *)

val get : t -> string -> int
(** One key of {!values}; raises [Not_found] if absent. *)
