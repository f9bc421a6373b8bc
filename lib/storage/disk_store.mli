(** EOS-like disk-based record store: the {!Record_store} logical layer
    over slotted pages behind an LRU buffer pool.

    A record is addressed by a logical {!Rid.t}; the physical map keeps a
    directory from rid to (page, slot) so an update that no longer fits in
    place can relocate the record without changing its identity (the
    paper's persistent pointers must stay valid). A seeded bloom filter
    in front of the directory answers lookups of never-inserted rids
    without a lock or a page read. Durability is through the WAL: commit
    forces the log; a crash discards the buffer pool and pages, and
    {!Recovery.recover_disk} rebuilds the store from the last checkpoint
    plus committed log suffix. *)

include Record_store.S

val create :
  ?page_size:int ->
  ?pool_capacity:int ->
  ?io_spin:int ->
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Commit_pipeline.mode ->
  ?faults:Faults.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_ckpt_bytes:int ->
  mgr:Txn.mgr ->
  name:string ->
  unit ->
  t
(** Creates an empty store and registers it as a commit/abort participant
    with [mgr]. [page_size] defaults to 4096, [pool_capacity] (frames) to
    64; [io_spin] simulates per-page-I/O device latency (see
    {!Pager.create}), [flush_spin] per-log-force latency and
    [flush_sleep] its blocking variant (see {!Wal.create}).
    [durability] selects the commit pipeline's mode
    ({!Commit_pipeline.mode}, default [Immediate] — flush per commit).
    [faults] is the fault-injection plane shared by the
    store's pager, buffer pool, WAL and lock points; pass the same plane
    to several stores to give them one global I/O-point numbering.
    [rid_base]/[rid_stride] (defaults 0/1) restrict fresh rids to the
    residue class [rid_base (mod rid_stride)] — the {!Ode_parallel} shard
    partitioning rule; raises [Store_error] unless
    [0 <= rid_base < rid_stride].

    Capacity knobs: [wal_segment_bytes] (default 0 = never) seals WAL
    segments at that size so full checkpoints can retire them
    ({!Wal.retire_below}); [ckpt_full_every] (default 1 = always full)
    makes every Nth checkpoint a full anchor with incremental
    [Ckpt_delta] manifests between; [auto_ckpt_bytes] (default 0 = off)
    arms {!Commit_pipeline.auto_checkpoint_due} at that much WAL growth. *)
