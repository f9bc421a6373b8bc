(** Uniform record-store interface.

    Disk-based Ode (on EOS) and MM-Ode (on Dali) share one object manager;
    we mirror that with one logical store layer ({!Record_store}) over two
    physical record maps, both exposed through this record-of-functions
    interface, so the object store, trigger runtime and benchmarks are
    written once and run against either backend.

    Operations run under a transaction. A {e regular} transaction follows
    strict 2PL: [read] takes a shared lock on the record, [insert]/
    [update]/[delete] take exclusive locks held until commit/abort; an
    operation that cannot get its lock raises {!Would_block} (caught by
    the {!Workload} scheduler) or {!Lock_manager.Deadlock}.

    A {e snapshot} transaction ({!Txn.begin_txn} [~snapshot:true]) takes
    the multi-version read path instead: [read]/[iter] pin the commit
    clock at first use and resolve against the per-record version chains
    ({!Mvcc}) with {e no} locks — lock-free and abort-free. Writes under a
    snapshot transaction raise {!Store_error}. [read_committed] offers
    the same lock-free read-committed access to regular transactions (the
    trigger runtime's certified snapshot-safe cascades), validated at
    write time against {!Write_conflict}. *)

exception Would_block of { txn : int; key : Lock_manager.key; holders : int list }

exception Write_conflict of { txn : int; key : Lock_manager.key }
(** First-updater-wins MVCC validation failure: between a transaction's
    lock-free read of a record ({!t.read_committed}) and its write, some
    other transaction committed a newer version. The writer must abort
    and retry (the {!Workload} scheduler restarts its script). *)

type t = {
  name : string;
  insert : Txn.t -> bytes -> Rid.t;
  read : Txn.t -> Rid.t -> bytes option;
      (** S lock under a regular transaction; lock-free snapshot
          resolution at the pinned timestamp under a snapshot one. *)
  update : Txn.t -> Rid.t -> bytes -> unit;
  lock_write : Txn.t -> Rid.t -> unit;
      (** Take the record's X lock for a write that a layer above stages
          until commit-prepare (the object cursor of
          {!Ode_objstore.Database}): the checks, [lock_acquire] fault
          point and blocking of [update], with no change to the record. *)
  delete : Txn.t -> Rid.t -> unit;
  iter : Txn.t -> (Rid.t -> bytes -> unit) -> unit;
      (** Iterate every live record: under shared locks (regular), or
          lock-free over the version chains at the pinned timestamp
          (snapshot). *)
  read_committed : Txn.t -> Rid.t -> int * bytes option;
      (** Lock-free read-committed access for a {e regular} transaction:
          if the transaction already holds a lock on the record, the
          current store state is returned tagged {!Mvcc.own_read_ts}
          (reads-your-own-writes, no validation needed); otherwise the
          newest committed version and its timestamp, with no lock
          taken. Callers that later write the record must validate the
          returned timestamp against {!version_ts}. *)
  version_ts : Rid.t -> int;
      (** Commit timestamp of the record's newest committed version (0
          if none) — the write-time validation anchor. *)
  prune_versions : unit -> unit;
      (** Force a version-chain GC pass at the manager's current
          watermark ({!Txn.gc_watermark}). Checkpoints do this
          implicitly. *)
  record_count : unit -> int;
  maybe_present : Rid.t -> bool;
      (** Capacity probe: bloom-then-directory membership with no lock
          and no page read. [false] is authoritative (the rid has no
          live record); [true] means a live directory entry exists
          (committed or uncommitted). The cheap existence check behind
          [Session.post_event_fast]. *)
  in_flight : unit -> int;
      (** Transactions with uncommitted writes in this store. A
          checkpoint requires this to be 0; [Session.checkpoint] uses it
          to defer until quiescence. *)
  checkpoint : unit -> unit;
      (** Write a checkpoint to the WAL — a full anchor or an
          incremental [Ckpt_delta] manifest per the store's
          [ckpt_full_every] chain — and prune version chains to the GC
          watermark. A full anchor also retires WAL segments below it
          and rebuilds the bloom filter. Only call at transaction
          quiescence (raises [Store_error] otherwise). *)
  metrics : Ode_util.Metrics.t;
      (** The store's values: op counts, WAL, checkpoint chain, commit
          pipeline, [mvcc.*] and, on disk, page I/O, pool and bloom
          filter. *)
  crash : unit -> unit;
      (** Simulate a crash: the volatile state (records in memory,
          buffered frames, version chains) is lost and the store refuses
          further use. Only the WAL's durable prefix survives. *)
  wal : Wal.t;
  pipeline : Commit_pipeline.t;
      (** The store's group-commit durability pipeline; commit-time log
          forces route through it ({!Commit_pipeline}). *)
}

val lock_or_raise : Txn.t -> Lock_manager.key -> Lock_manager.mode -> unit
(** Shared helper for implementations: acquire or raise {!Would_block}. *)

exception Store_error of string
(** Misuse: updating/deleting a non-existent record, oversized record,
    writing under a snapshot transaction, etc. *)
