(** Transactions and the transaction manager.

    Stores register as {e participants}; at commit/abort the manager drives
    each participant's callback (log forcing for commit, undo application
    for abort) and then releases the transaction's locks — strict two-phase
    locking.

    Commit dependencies implement the paper's [dependent] coupling mode
    (§4.2, §5.5): a system transaction carrying a [dependent] trigger action
    may commit only if the event-detecting transaction committed; if that
    transaction aborted, commit raises and the system transaction is
    aborted instead. [!dependent] actions simply run in a transaction with
    no dependency. System transactions ("a transaction not explicitly
    requested by the user, but required for trigger processing", §5.5) are
    ordinary transactions flagged for accounting. *)

type state = Active | Committed | Aborted

type cursor = ..
(** State a layer above the stores keeps per transaction, found with no
    table lookup ({!Ode_objstore.Database}'s object cursor). *)

type cursor += No_cursor

type t = private {
  id : int;
  system : bool;
  snapshot : bool;
      (** MVCC read-only reader: reads resolve against an immutable
          snapshot of committed state, no locks are ever taken, writes
          are rejected by the stores ({!is_snapshot}). *)
  mgr : mgr;
  mutable state : state;
  mutable deps : t list;
      (** transactions this commit depends on; emptied when it finishes *)
  mutable unacked : int;  (** durability acks still deferred (see {!durably_acked}) *)
  mutable commit_ts : int;  (** MVCC commit timestamp; -1 until stamped *)
  mutable snapshot_ts : int;  (** pinned snapshot timestamp; -1 until first read *)
  mutable cursor : cursor;  (** [No_cursor] until set; dropped when it finishes *)
}

and participant = {
  p_name : string;
  p_prepare : t -> unit;
      (** Runs for every participant before any [on_commit]: stage deferred
          writes while the transaction is still active so the commit phase
          (WAL forcing) covers them. Must not raise on the happy path. *)
  on_commit : t -> unit;
  on_abort : t -> unit;
}

and mgr

exception Invalid_state of string
(** Raised when committing/aborting a non-active transaction, or operating
    under a finished one. *)

exception Dependency_failed of { txn : int; on : int }
(** Raised by [commit] when a commit dependency aborted; the dependent
    transaction is aborted before raising. *)

val create_mgr : ?lock_mgr:Lock_manager.t -> unit -> mgr
val lock_mgr : mgr -> Lock_manager.t

val metrics : mgr -> Ode_util.Metrics.t
(** Counters [begun], [committed], [aborted] and [system] (system
    transactions begun). *)

val register_participant : mgr -> participant -> unit

val begin_txn : ?system:bool -> ?snapshot:bool -> mgr -> t
(** [snapshot:true] begins an MVCC read-only reader (default [false]):
    its first store read pins the current commit clock and every
    subsequent read resolves against that committed prefix, lock-free
    and abort-free. Store writes under a snapshot transaction raise
    {!Store.Store_error}. *)

(** {2 MVCC commit clock and snapshots}

    The manager carries a monotonic commit clock, advanced by
    {!Commit_pipeline.on_commit} in flush-enqueue order (identical to
    commit order in this synchronous engine) — one clock per manager, so
    every {!Ode_parallel.Sharded} shard clocks independently. Writers are
    stamped once ({!stamp_commit} is memoized), so a transaction's
    versions across several stores share one timestamp. *)

val is_snapshot : t -> bool

val stamp_commit : t -> int
(** Advance the manager's commit clock and stamp the transaction with it
    (idempotent; later calls return the first stamp). Called by the
    commit pipeline — not by application code. *)

val commit_ts : t -> int
(** The stamp, or -1 for a transaction that has not reached a commit
    pipeline (read-only transactions never do). *)

val commit_clock : mgr -> int

val pin_snapshot : t -> int
(** Pin (first call) and return the snapshot timestamp; registers the
    reader in the manager's live-snapshot set until it finishes. Raises
    {!Invalid_state} on a non-snapshot transaction. *)

val snapshot_ts : t -> int

val oldest_snapshot : mgr -> int option
val live_snapshot_count : mgr -> int

val gc_watermark : mgr -> int
(** Oldest live snapshot timestamp, or the commit clock when no snapshot
    is live: versions below it (bar the newest per record) are
    unreachable and {!Mvcc.prune} may drop them. *)

val oldest_snapshot_lag : mgr -> int
(** [commit_clock - oldest live snapshot] (0 when none): how much
    history the slowest reader pins. *)

val commit : t -> unit
val abort : t -> unit

val add_dependency : t -> on:t -> unit
(** [add_dependency t ~on] makes [t]'s commit conditional on [on] having
    committed. *)

val set_cursor : t -> cursor -> unit

val is_active : t -> bool
val check_active : t -> unit

(* -------------------- durability acks -------------------- *)

val defer_ack : t -> unit
(** Called by a store's commit pipeline when the transaction's commit
    record is buffered but not yet forced: the durability ack is deferred
    (group / delayed-durability modes). *)

val resolve_ack : t -> unit
(** One deferred ack became durable (its covering WAL flush succeeded). *)

val durably_acked : t -> bool
(** The transaction committed {e and} every participating store's commit
    record reached the durable WAL prefix. Under [Immediate] durability
    this is true as soon as [commit] returns (barring an injected flush
    failure); under [Group]/[Async] it flips when the batch flush lands. *)


val pp : Format.formatter -> t -> unit
