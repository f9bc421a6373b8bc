(** Per-record version chains for multi-version concurrency control.

    Each record id maps to a chain of [(commit_ts, payload option)]
    versions, newest first; [None] payloads are tombstones left by
    deletes. Chains hold {e committed} data only — writers keep their
    uncommitted, in-place changes in the store's record table (protected
    by their X locks) and install one version per touched record at
    commit, stamped with the transaction's commit timestamp
    ({!Txn.commit_ts}). Snapshot readers resolve a record at a pinned
    timestamp without taking any lock: the newest version at or below the
    snapshot is, by construction, the committed prefix at that instant.

    GC prunes versions no live snapshot can reach: everything strictly
    older than the newest version at or below the watermark
    ({!Txn.gc_watermark} — the oldest live snapshot, or the commit clock
    at quiescence). A full prune runs at every checkpoint; a cheap
    opportunistic prune runs every {!auto_prune_interval} installs so a
    long writer run cannot grow chains unboundedly between checkpoints. *)

type t

val create : unit -> t

val own_read_ts : int
(** Sentinel timestamp ([-1]) tagging a lock-free read that was served
    from the store's current state because the reading transaction
    already holds a lock on the record (reads-your-own-writes); such a
    read needs no commit-time validation. *)

val load : t -> ts:int -> (Rid.t * bytes) list -> unit
(** Install each entry as a baseline version in a fresh singleton chain
    without registering it for pruning — recovery's bulk load. A
    singleton non-tombstone chain is settled: it can only be superseded
    by a later {!install}, never pruned, so registering it would just
    make the first post-recovery GC pass sweep the whole store. [t] must
    hold no chains, and [entries] must be in ascending rid order: they
    seed the rid order {!iter_at} visits, which stays cached until a
    chain is added or dropped. *)

val install : t -> ts:int -> Rid.t -> bytes option -> unit
(** Prepend a committed version ([None] = delete tombstone). [ts] must be
    monotonically non-decreasing across calls (commit order). *)

val latest : t -> Rid.t -> int * bytes option
(** Chain head: the newest committed version and its timestamp;
    [(0, None)] for a record with no chain (never committed). *)

val read_at : t -> ts:int -> Rid.t -> bytes option
(** The record's committed payload as of snapshot [ts]: the newest
    version at or below [ts], [None] if that version is a tombstone or
    the record did not yet exist. *)

val iter_at : t -> ts:int -> (Rid.t -> bytes -> unit) -> unit
(** Visit every record live at snapshot [ts], in ascending rid order. *)

val prune : t -> watermark:int -> unit
(** Drop every version strictly older than the newest version at or
    below [watermark]; chains whose surviving version is a tombstone at
    or below the watermark are dropped entirely. *)

val auto_prune_interval : int

val maybe_prune : t -> watermark:int -> unit
(** {!prune}, but only once every {!auto_prune_interval} installs. *)

val clear : t -> unit
(** Drop all chains (crash: versions are volatile). Counters survive. *)

val note_snapshot_read : t -> unit
(** Count one snapshot-path read (and the S lock it avoided). *)

val metrics : t -> Ode_util.Metrics.t
(** Counters [snapshot_reads], [s_locks_avoided] (equal: every snapshot
    read avoids an S lock), [versions_installed], [versions_pruned]; peak
    [max_chain_len] (the current longest chain); gauge [chains]. *)
