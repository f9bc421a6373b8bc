(** Two-mode (S/X) lock manager with upgrade and waits-for deadlock
    detection.

    Concurrency in the reproduction is deterministic and simulated: store
    operations request locks and either get [Granted] or [Blocked]; a
    blocked operation raises out to the {!Workload} scheduler, which retries
    it on a later turn. Blocking requests register in a waits-for graph; a
    request that would close a cycle raises {!Deadlock} with the requester
    as victim, so deadlock experiments are reproducible run to run.

    The counters ([s_granted], [x_granted], [upgrades], [blocks],
    [deadlocks]) drive experiment T6 — the paper's §6 observation that
    triggers turn read access into write access and increase lock waits and
    deadlock likelihood.

    Layout. One table maps each locked key to a cell, which holds the key
    and its [(txn, mode)] holders, oldest first; the cell exists from the
    key's first grant until its last holder releases. A record key hashes
    by its rid's integer alone and compares rid first, then store name,
    so the two stores of a session share buckets but never locks. A
    second, integer-keyed table maps each transaction to the cells it
    holds, and [release_all] walks that list. A third holds the pending
    waits, the waits-for graph's edges.

    Cost. A request hashes its key once (an integer for a record) and
    scans the cell's few holders: no polymorphic hash and no table is
    built per key or per transaction. A first grant allocates the cell,
    one holder and one held-list entry; an upgrade, one holder; a
    reentrant request, nothing. A request touches the wait table only
    when some transaction is waiting. *)

type mode = S | X

type key =
  | Record of string * Rid.t  (** (store name, record) *)
  | Named of string  (** coarse named resource *)

type outcome =
  | Granted
  | Blocked of int list  (** conflicting holder transaction ids *)

exception Deadlock of { victim : int; cycle : int list }

type t

val create : unit -> t

val acquire : t -> txn:int -> key -> mode -> outcome
(** Request a lock. Reentrant: a holder of [X] is granted any request on the
    same key; a holder of [S] requesting [X] upgrades when it is the sole
    holder. Raises {!Deadlock} when granting the wait would close a cycle in
    the waits-for graph; the requester is the victim and its pending wait is
    cancelled before raising. *)

val release_all : t -> txn:int -> unit
(** Drop every lock held by the transaction and cancel its pending wait. *)

val cancel_wait : t -> txn:int -> unit

val holds : t -> txn:int -> key -> mode option
val held_keys : t -> txn:int -> key list

val pp_key : Format.formatter -> key -> unit

val metrics : t -> Ode_util.Metrics.t
(** Counters [s_granted], [x_granted], [upgrades], [blocks], [deadlocks]. *)
