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
  ?settings:Settings.t ->
  ?faults:Faults.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  mgr:Txn.mgr ->
  name:string ->
  unit ->
  t
(** Creates an empty store and registers it as a commit/abort participant
    with [mgr]. [settings] (default {!Settings.default}) sizes the pages
    and the buffer pool, sets the simulated device latencies, the commit
    pipeline's durability mode and the capacity knobs.
    [faults] is the fault-injection plane shared by the
    store's pager, buffer pool, WAL and lock points; pass the same plane
    to several stores to give them one global I/O-point numbering.
    [rid_base]/[rid_stride] (defaults 0/1) restrict fresh rids to the
    residue class [rid_base (mod rid_stride)] — the {!Ode_parallel} shard
    partitioning rule. Raises [Store_error] unless
    [0 <= rid_base < rid_stride] and [settings.ckpt_full_every >= 1]. *)
