(** Group-commit durability pipeline: batches WAL forces across
    transactions.

    Sits between {!Txn} commit processing and {!Wal.flush}. Each store owns
    one pipeline wrapping its WAL; the store's [on_commit] participant
    callback routes through {!on_commit} instead of forcing the log itself.
    The commit-time log force is the throughput bottleneck of a
    main-memory active database once detection is fast (the paper's
    EOS/Dali substrate), and — like the paper's deferred coupling mode
    batching trigger actions up to [tcomplete] — durability
    acknowledgements can be batched across transactions without weakening
    the recovery contract: durability is still "the flushed WAL prefix".

    {2 Modes}

    - [Immediate]: flush per commit, the seed behaviour and the reference
      mode. The commit record is a per-transaction {!Wal.Commit}, so the
      log byte format is unchanged.
    - [Group { max_batch; max_delay_ticks }]: commits enqueue with their
      ack deferred; one flush acks the whole batch when it reaches
      [max_batch] commits or the oldest enqueued commit is
      [max_delay_ticks] logical ticks old. No wall clock: ticks advance on
      pipeline operations (one per commit/abort routed through the
      pipeline), so runs are deterministic and replayable.
    - [Async { max_lag }]: delayed durability — the commit is acked to the
      application immediately (ack-before-flush) and the log is only
      forced once more than [max_lag] commits are unflushed. No latency
      bound, only a bounded unflushed-commit window.
    - [Quorum { n; max_batch; max_delay_ticks }]: replicated durability.
      Batching is exactly [Group], but after the local force the batch's
      acks stay deferred until the batch's WAL offset is durable on at
      least [n] replicas. The pipeline itself is replication-agnostic: a
      shipper ({!attach_shipper}, installed by [Ode_replication]) runs
      after every successful flush and reports fleet progress back via
      {!note_quorum_offset}; pending acks release strictly in commit
      order as the confirmed offset advances. With no shipper attached
      the pipeline is a degraded single-site primary and [Quorum]
      behaves as [Group].

    {2 Batch atomicity}

    In [Group]/[Async] modes the batch's commit markers are written as a
    single {!Wal.Commit_group} record appended immediately before the
    flush. The WAL decoder keeps only complete records of a durable byte
    prefix, so a torn flush keeps or drops the batch as a unit — a batch's
    transactions are all recovered or all lost, never split. A transient
    flush failure ([Faults.Fail] at [Wal_flush]) leaves the batch buffered
    with its acks still deferred; the next successful flush resolves them
    (delayed durability, as the seed already did per commit). *)

type mode =
  | Immediate
  | Group of { max_batch : int; max_delay_ticks : int }
  | Async of { max_lag : int }
  | Quorum of { n : int; max_batch : int; max_delay_ticks : int }

type t

val create : mode:mode -> auto_checkpoint_bytes:int -> Wal.t -> t
(** A pipeline over [wal] (the store's {!Settings.t} supplies both).
    [auto_checkpoint_bytes] (0 = off) arms the auto-checkpoint policy:
    once the WAL durable prefix has grown that many bytes past the last
    checkpoint, {!auto_checkpoint_due} turns true. The pipeline never
    checkpoints itself — the session owning the store reads the signal
    and checkpoints at the next quiescent transaction boundary. *)

val mode : t -> mode

val auto_checkpoint_due : t -> bool
(** WAL growth since the last {!note_checkpoint} has reached the
    configured [auto_checkpoint_bytes] threshold (always [false] when the
    policy is off). *)

val note_checkpoint : t -> unit
(** Record that a checkpoint just completed (called by the store at the
    end of every [checkpoint_impl]): rearms the growth trigger at the
    current durable size. *)

val on_commit : t -> Txn.t -> unit
(** Route one committed transaction's log force. Stamps the transaction
    with the manager's next MVCC commit timestamp ({!Txn.stamp_commit} —
    pipelines enqueue and flush in commit order, so the clock advances in
    flush order; memoized, so a transaction spanning several stores gets
    one stamp), appends the commit marker (per-txn [Commit] under
    [Immediate], batched [Commit_group] otherwise), defers the
    transaction's durability ack ({!Txn.defer_ack}), and flushes per the
    mode's policy. A transient injected flush failure is swallowed (the
    ack stays deferred); an injected crash propagates. *)

val tick : t -> unit
(** Advance logical time without a commit (the stores call this on abort).
    Under [Group] this can trip the [max_delay_ticks] deadline and flush a
    waiting batch. *)

val flush : t -> unit
(** Drain: materialize any queued batch, force the WAL and resolve every
    deferred ack. Exceptions from the flush (injected faults/crashes)
    propagate; the batch stays buffered for a later retry. Used by
    checkpoints and by [Session.sync]. *)

val materialize : t -> unit
(** Append the queued batch's [Commit_group] record to the WAL tail
    without forcing, so a caller can order further records (e.g. a
    checkpoint) after the batch within one flush. *)

val pending : t -> int
(** Commits whose durability ack is still deferred (queued + awaiting
    flush + awaiting quorum). *)

val attach_shipper : t -> (unit -> unit) -> unit
(** Install the replication shipper, called after every successful
    {!flush} (including checkpoint flushes) with the WAL's durable prefix
    already advanced. The hook ships the new bytes to the fleet and
    reports confirmed progress back via {!note_quorum_offset}. Installing
    a shipper is what arms [Quorum] ack parking. *)

val detach_shipper : t -> unit

val note_quorum_offset : t -> int -> unit
(** The highest WAL byte offset now durable on the mode's required number
    of replicas (monotone; stale values are ignored). Releases every
    parked [Quorum] ack whose batch offset is covered, oldest first —
    ack release order is the commit order. *)

val metrics : t -> Ode_util.Metrics.t
(** Counters [batched_commits] (commits whose ack was deferred past
    [on_commit]), [batch_flushes] (WAL forces that resolved at least one
    ack), [flushed_commits], [ack_lag_ticks] (summed resolve−enqueue tick
    lag), [quorum_waits] (flushes that left at least one ack parked on
    remote durability), [quorum_commits] (acks released by quorum
    confirmation), [auto_ckpts] (checkpoints taken with the growth
    trigger armed); mean [avg_batch_size] ([flushed_commits] over
    [batch_flushes], rounded); peak [max_batch_size]; gauges
    [pending_acks] and [quorum_pending] (currently parked). *)

val mode_of_string : string -> (mode, string) result
(** ["immediate"], ["group"], ["group:B"], ["group:B:D"] (batch size [B],
    deadline [D] ticks; defaults 16 and 64), ["async"], ["async:L"] (lag
    window [L]; default 32), ["quorum"], ["quorum:N"], ["quorum:N:B"],
    ["quorum:N:B:D"] (quorum size [N]; defaults 2, 16 and 64). *)

val mode_to_string : mode -> string
(** Inverse of {!mode_of_string}. *)
