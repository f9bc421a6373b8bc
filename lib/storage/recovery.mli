(** Crash recovery: rebuild a store from the durable prefix of its WAL.

    Scheme: two-pass redo-only logical recovery. Pass one scans the log for
    commit records (per-transaction [Commit] markers and group-commit
    [Commit_group] batches alike); pass two replays, starting from the most
    recent full [Checkpoint] anchor, the [Ckpt_delta] manifests chained
    above it and every operation belonging to a committed transaction, in
    log order. Operations of uncommitted transactions are simply never
    applied (uncommitted data never reaches the durable state), so no undo
    pass is needed — the style used by main-memory managers like Dali,
    which MM-Ode runs on.

    With segment retirement ({!Wal.retire_below}) the retained log starts
    at the last full anchor, so replay work is bounded by checkpoint age,
    not total history.

    The paper leans on this machinery twice: aborted transactions must roll
    back trigger state ("Event roll-back is handled using standard
    transaction roll-back of the triggers' states", §5.5), and phoenix
    transactions (§6) must survive crashes, which they do here by being
    recorded as committed records drained post-recovery. *)

val committed_state : Wal.record list -> (Rid.t * bytes) list
(** The record map implied by a log: latest full checkpoint, overlaid
    deltas, plus committed suffix, sorted by rid. *)

val truncated_tail : Wal.record list -> int
(** Records after the last complete commit boundary — the trailing
    Begin/Op run of transactions no durable marker ever resolved, which
    redo silently skips. Reported by [Session.report_of_image] so
    the replication tests can assert exact truncation points. [Abort]
    counts as a boundary: truncating a durable Abort would resurrect the
    Commit it cancels (last-marker-wins). *)

val recover_disk :
  ?settings:Settings.t ->
  ?faults:Faults.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  mgr:Txn.mgr ->
  name:string ->
  wal_bytes:bytes ->
  unit ->
  Disk_store.t
(** Build a fresh disk store holding exactly the committed state of the
    given durable log bytes. The new store's own WAL begins with a
    checkpoint of the recovered state. The log does not record the
    store's configuration: [settings] (default {!Settings.default}) and
    [rid_base]/[rid_stride] should repeat the crashed store's, so the
    recovered store keeps its pages, pool, durability mode and capacity
    knobs, and post-recovery allocations stay in its residue class (see
    {!Disk_store.create}). A session's crash image carries all of them. *)

val recover_mem :
  ?settings:Settings.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  mgr:Txn.mgr ->
  name:string ->
  wal_bytes:bytes ->
  unit ->
  Mem_store.t
(** {!recover_disk} for the main-memory store. *)
