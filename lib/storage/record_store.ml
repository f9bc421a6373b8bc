module Metrics = Ode_util.Metrics

let fail fmt = Format.kasprintf (fun msg -> raise (Store.Store_error msg)) fmt

module type PHYS = sig
  type t

  val find : t -> Rid.t -> bytes option
  val put : t -> Rid.t -> bytes -> unit
  val remove : t -> Rid.t -> unit
  val mem : t -> Rid.t -> bool
  val count : t -> int
  val iter : t -> (Rid.t -> unit) -> unit
  val maybe_mem : t -> Rid.t -> bool
  val note_negative : t -> unit
  val note_false_positive : t -> unit
  val presize : t -> int -> unit
  val after_insert : t -> unit
  val on_full_anchor : t -> dirty_rids:Rid.t list -> unit
  val before_checkpoint : t -> unit
  val crash : t -> unit
end

module type S = sig
  type t

  val ops : t -> Store.t
  val load_bulk : t -> (Rid.t * bytes) list -> unit
  val anchor_from : t -> (Rid.t * bytes) list -> unit
  val crash : t -> unit
end

module Make (P : PHYS) = struct
  type t = {
    name : string;
    mgr : Txn.mgr;
    faults : Faults.t;
    phys : P.t;
    wal : Wal.t;
    pipeline : Commit_pipeline.t;
    mutable sorted_rids : Rid.t list option;  (* cache for scans; None = dirty *)
    undo : (int, Wal.op list) Hashtbl.t;  (* txn -> ops, newest first *)
    chains : Mvcc.t;  (* committed version chains for snapshot reads *)
    dirty : unit Rid.Tbl.t;  (* rids with committed changes since the last checkpoint *)
    ckpt_full_every : int;  (* every Nth checkpoint is a full anchor *)
    mutable ckpt_seq : int;
    mutable last_full_seq : int;  (* -1 until the first full checkpoint *)
    rid_base : int;  (* shard residue: fresh rids ≡ rid_base (mod rid_stride) *)
    rid_stride : int;
    mutable next_rid : int;
    mutable crashed : bool;
    metrics : Metrics.t;
    inserts : Metrics.counter;
    reads : Metrics.counter;
    updates : Metrics.counter;
    deletes : Metrics.counter;
    ckpt_fulls : Metrics.counter;
    ckpt_deltas : Metrics.counter;
    ckpt_delta_bytes : Metrics.counter;  (* total encoded size of delta manifests *)
  }

  let check_usable t = if t.crashed then fail "store %s has crashed" t.name

  let check_writable t (txn : Txn.t) =
    if Txn.is_snapshot txn then
      fail "snapshot transaction %d is read-only (store %s)" txn.id t.name

  let lock_key t rid = Lock_manager.Record (t.name, rid)

  (* Record-lock acquisition is an addressable I/O point: a [Fail] here
     models a lock-acquisition timeout (raised before any state changes, so
     the enclosing transaction can abort cleanly). *)
  let lock t txn rid mode =
    (match Faults.check t.faults Faults.Lock_acquire with
    | `Proceed -> ()
    | `Torn _ ->
        raise (Faults.Injected_fault { point = Faults.point t.faults; site = Faults.Lock_acquire }));
    Store.lock_or_raise txn (lock_key t rid) mode

  let log_op t (txn : Txn.t) op =
    if not (Hashtbl.mem t.undo txn.id) then begin
      Hashtbl.replace t.undo txn.id [];
      Wal.append t.wal (Wal.Begin txn.id)
    end;
    Wal.append t.wal (Wal.Op (txn.id, op));
    Hashtbl.replace t.undo txn.id (op :: Hashtbl.find t.undo txn.id)

  (* Rids must be unique across the store's lifetime (not reused after
     delete), so they are drawn from a monotone counter per store. *)
  let insert_impl t (txn : Txn.t) payload =
    check_usable t;
    check_writable t txn;
    let rid = Rid.of_int t.next_rid in
    t.next_rid <- t.next_rid + t.rid_stride;
    lock t txn rid Lock_manager.X;
    P.put t.phys rid payload;
    t.sorted_rids <- None;
    log_op t txn (Wal.Insert (rid, payload));
    Metrics.incr t.inserts;
    P.after_insert t.phys;
    rid

  (* Snapshot readers resolve against the version chains at their pinned
     timestamp — no lock, no block, no abort, no page I/O. Regular
     transactions S-lock the record and read in place (uncommitted
     isolation comes from the writers' X locks). *)
  let read_impl t (txn : Txn.t) rid =
    check_usable t;
    if Txn.is_snapshot txn then begin
      Txn.check_active txn;
      let ts = Txn.pin_snapshot txn in
      Mvcc.note_snapshot_read t.chains;
      Metrics.incr t.reads;
      Mvcc.read_at t.chains ~ts rid
    end
    else if not (P.maybe_mem t.phys rid) then begin
      (* Definitely never inserted: answer without the S-lock or the map
         probe. Safe because the filter has no false negatives — a
         concurrent uncommitted insert of this rid would already be in
         the filter and fall through to the lock. *)
      Txn.check_active txn;
      P.note_negative t.phys;
      Metrics.incr t.reads;
      None
    end
    else begin
      lock t txn rid Lock_manager.S;
      Metrics.incr t.reads;
      match P.find t.phys rid with
      | None ->
          P.note_false_positive t.phys;
          None
      | some -> some
    end

  (* Lock-free read-committed access for a regular transaction (certified
     snapshot-safe trigger cascades). A record the transaction already
     locked is served from the in-place state — reads-your-own-writes,
     tagged [Mvcc.own_read_ts] so callers skip write-time validation. *)
  let read_committed_impl t (txn : Txn.t) rid =
    check_usable t;
    Txn.check_active txn;
    let held =
      Lock_manager.holds (Txn.lock_mgr t.mgr) ~txn:txn.id (lock_key t rid) <> None
    in
    Metrics.incr t.reads;
    if held then (Mvcc.own_read_ts, P.find t.phys rid)
    else begin
      Mvcc.note_snapshot_read t.chains;
      Mvcc.latest t.chains rid
    end

  let version_ts_impl t rid = fst (Mvcc.latest t.chains rid)

  let lock_write_impl t (txn : Txn.t) rid =
    check_usable t;
    check_writable t txn;
    lock t txn rid Lock_manager.X

  let update_impl t (txn : Txn.t) rid payload =
    lock_write_impl t txn rid;
    match P.find t.phys rid with
    | None -> fail "update of unknown record %a" Rid.pp rid
    | Some before ->
        P.put t.phys rid payload;
        log_op t txn (Wal.Update (rid, before, payload));
        Metrics.incr t.updates

  let delete_impl t (txn : Txn.t) rid =
    check_usable t;
    check_writable t txn;
    lock t txn rid Lock_manager.X;
    match P.find t.phys rid with
    | None -> fail "delete of unknown record %a" Rid.pp rid
    | Some before ->
        P.remove t.phys rid;
        t.sorted_rids <- None;
        log_op t txn (Wal.Delete (rid, before));
        Metrics.incr t.deletes

  (* Sorted scan order, rebuilt only after an insert/delete/undo dirtied it:
     Crashlab probes and checkpoints scan after every transaction, so
     re-sorting the whole map per scan was quadratic. *)
  let sorted_rids t =
    match t.sorted_rids with
    | Some rids -> rids
    | None ->
        let rids = ref [] in
        P.iter t.phys (fun rid -> rids := rid :: !rids);
        let rids = List.sort Rid.compare !rids in
        t.sorted_rids <- Some rids;
        rids

  let iter_impl t (txn : Txn.t) f =
    check_usable t;
    if Txn.is_snapshot txn then begin
      Txn.check_active txn;
      let ts = Txn.pin_snapshot txn in
      Mvcc.iter_at t.chains ~ts (fun rid payload ->
          Mvcc.note_snapshot_read t.chains;
          Metrics.incr t.reads;
          f rid payload)
    end
    else begin
      let rids = sorted_rids t in
      let visit rid =
        lock t txn rid Lock_manager.S;
        match P.find t.phys rid with None -> () | Some payload -> f rid payload
      in
      List.iter visit rids
    end

  let apply_undo t op =
    match op with
    | Wal.Insert (rid, _) ->
        P.remove t.phys rid;
        t.sorted_rids <- None
    | Wal.Update (rid, before, _) -> P.put t.phys rid before
    | Wal.Delete (rid, before) ->
        P.put t.phys rid before;
        t.sorted_rids <- None

  (* Distinct rids a transaction's undo ops touched, for version install.
     Deduped through a scratch table: the membership scan over the
     accumulator made large batched transactions quadratic in batch size. *)
  let touched_rids ops =
    let seen = Rid.Tbl.create 64 in
    List.fold_left
      (fun acc op ->
        let rid =
          match op with
          | Wal.Insert (rid, _) | Wal.Update (rid, _, _) | Wal.Delete (rid, _) -> rid
        in
        if Rid.Tbl.mem seen rid then acc
        else begin
          Rid.Tbl.replace seen rid ();
          rid :: acc
        end)
      [] ops

  (* The commit-time log force routes through the pipeline: Immediate mode
     flushes per commit (a transient flush failure is swallowed as delayed
     durability), Group/Async modes batch the force across transactions. *)
  let on_commit t (txn : Txn.t) =
    match Hashtbl.find_opt t.undo txn.id with
    | None -> ()
    | Some undo_ops ->
        Commit_pipeline.on_commit t.pipeline txn;
        (* Install one version per touched record under the pipeline's commit
           stamp — the post-commit state (None for a delete tombstone). *)
        let ts = Txn.commit_ts txn in
        List.iter
          (fun rid ->
            Mvcc.install t.chains ~ts rid (P.find t.phys rid);
            (* Committed change: the next incremental checkpoint must carry
               this rid (aborted work never enters the dirty set). *)
            Rid.Tbl.replace t.dirty rid ())
          (touched_rids undo_ops);
        Mvcc.maybe_prune t.chains ~watermark:(Txn.gc_watermark t.mgr);
        Hashtbl.remove t.undo txn.id

  let on_abort t (txn : Txn.t) =
    if not t.crashed then begin
      match Hashtbl.find_opt t.undo txn.id with
      | None -> ()
      | Some ops ->
          List.iter (apply_undo t) ops;
          Wal.append t.wal (Wal.Abort txn.id);
          Hashtbl.remove t.undo txn.id;
          (* Logical time also advances on aborts, so a Group batch deadline
             cannot be starved by a run of aborting transactions. *)
          Commit_pipeline.tick t.pipeline
    end

  let prune_versions_impl t () =
    check_usable t;
    Mvcc.prune t.chains ~watermark:(Txn.gc_watermark t.mgr)

  (* Checkpoint: every [ckpt_full_every]-th one (and the first) is a full
     anchor logging the entire committed state; the rest are incremental
     [Ckpt_delta] manifests carrying only the rids committed since the
     previous checkpoint — O(dirty), not O(data). After a full anchor the
     log below it is re-derivable, so sealed WAL segments wholly below the
     anchor record retire (subject to replication pins). *)
  let write_ckpt t ~seq ~full record =
    (* Any queued group batch materializes ahead of the checkpoint record so
       the batch's commit marker precedes the state it is folded into; the
       pipeline flush then forces both and resolves the deferred acks. *)
    Commit_pipeline.materialize t.pipeline;
    Wal.append t.wal record;
    Commit_pipeline.flush t.pipeline;
    (* The checkpoint is the last record of the flush just forced. *)
    let record_at = Wal.last_record_offset t.wal in
    (* Only a durable checkpoint updates the chain bookkeeping: a failed
       flush leaves the record buffered and the dirty set intact, so the
       next attempt simply supersedes it. *)
    t.ckpt_seq <- seq + 1;
    let dirty_rids =
      if full then Rid.Tbl.fold (fun rid () acc -> rid :: acc) t.dirty [] else []
    in
    Rid.Tbl.reset t.dirty;
    if full then begin
      Metrics.incr t.ckpt_fulls;
      t.last_full_seq <- seq;
      (* Everything strictly below the anchor is superseded. *)
      Wal.retire_below t.wal ~offset:record_at;
      P.on_full_anchor t.phys ~dirty_rids
    end
    else begin
      Metrics.incr t.ckpt_deltas;
      Metrics.add t.ckpt_delta_bytes (Wal.durable_size t.wal - record_at)
    end;
    Commit_pipeline.note_checkpoint t.pipeline;
    Mvcc.prune t.chains ~watermark:(Txn.gc_watermark t.mgr)

  let checkpoint_impl t () =
    check_usable t;
    if Hashtbl.length t.undo > 0 then fail "checkpoint with in-flight transactions";
    P.before_checkpoint t.phys;
    let seq = t.ckpt_seq in
    let full = t.last_full_seq < 0 || seq - t.last_full_seq >= t.ckpt_full_every in
    let record =
      if full then
        Wal.Checkpoint
          (List.map
             (fun rid ->
               match P.find t.phys rid with
               | Some payload -> (rid, payload)
               | None -> fail "checkpoint: dangling rid %a" Rid.pp rid)
             (sorted_rids t))
      else begin
        let entries =
          Rid.Tbl.fold (fun rid () acc -> (rid, P.find t.phys rid) :: acc) t.dirty []
        in
        let entries = List.sort (fun (a, _) (b, _) -> Rid.compare a b) entries in
        Wal.Ckpt_delta { seq; base = t.last_full_seq; entries }
      end
    in
    write_ckpt t ~seq ~full record

  (* Recovery's anchor: the caller just [load_bulk]ed [entries] (sorted, the
     exact committed state), so logging them directly skips the per-record
     re-read a regular full checkpoint pays — at a million objects that
     re-read is most of the recovery fixed cost. The store is fresh (empty
     WAL, right-sized physical map courtesy of [load_bulk]), which also
     lets this path skip [write_ckpt]'s retirement call (nothing below the
     anchor exists) and the full-anchor hook. *)
  let anchor_from t entries =
    check_usable t;
    if Hashtbl.length t.undo > 0 then fail "checkpoint with in-flight transactions";
    if Wal.durable_size t.wal > 0 then fail "anchor_from into a store with WAL history";
    P.before_checkpoint t.phys;
    let seq = t.ckpt_seq in
    Commit_pipeline.materialize t.pipeline;
    Wal.append t.wal (Wal.Checkpoint entries);
    Commit_pipeline.flush t.pipeline;
    t.ckpt_seq <- seq + 1;
    Rid.Tbl.reset t.dirty;
    Metrics.incr t.ckpt_fulls;
    t.last_full_seq <- seq;
    Commit_pipeline.note_checkpoint t.pipeline;
    Mvcc.prune t.chains ~watermark:(Txn.gc_watermark t.mgr)

  let create ~(settings : Settings.t) ?(rid_base = 0) ?(rid_stride = 1) ~faults ~mgr ~name phys =
    if rid_stride < 1 || rid_base < 0 || rid_base >= rid_stride then
      fail "store %s: rid_base %d must lie in [0, rid_stride=%d)" name rid_base rid_stride;
    if settings.ckpt_full_every < 1 then fail "store %s: ckpt_full_every must be >= 1" name;
    let wal =
      Wal.create ~faults ~flush_spin:settings.flush_spin ~flush_sleep:settings.flush_sleep
        ~segment_bytes:settings.wal_segment_bytes ()
    in
    let m = Metrics.create () in
    let t =
      {
        name;
        mgr;
        faults;
        phys;
        wal;
        pipeline =
          Commit_pipeline.create ~mode:settings.durability
            ~auto_checkpoint_bytes:settings.auto_checkpoint_bytes wal;
        sorted_rids = None;
        undo = Hashtbl.create 8;
        chains = Mvcc.create ();
        dirty = Rid.Tbl.create 64;
        ckpt_full_every = settings.ckpt_full_every;
        ckpt_seq = 0;
        last_full_seq = -1;
        rid_base;
        rid_stride;
        next_rid = rid_base;
        crashed = false;
        metrics = m;
        inserts = Metrics.counter m "inserts";
        reads = Metrics.counter m "reads";
        updates = Metrics.counter m "updates";
        deletes = Metrics.counter m "deletes";
        ckpt_fulls = Metrics.counter m "ckpt_fulls";
        ckpt_deltas = Metrics.counter m "ckpt_deltas";
        ckpt_delta_bytes = Metrics.counter m "ckpt_incremental_bytes";
      }
    in
    Metrics.gauge m "dirty_rids" (fun () -> Rid.Tbl.length t.dirty);
    Metrics.peak m "mvcc.oldest_snapshot_lag" (fun () -> Txn.oldest_snapshot_lag mgr);
    Metrics.gauge m "mvcc.live_snapshots" (fun () -> Txn.live_snapshot_count mgr);
    Metrics.attach m (Wal.metrics wal);
    Metrics.attach m (Commit_pipeline.metrics t.pipeline);
    Metrics.attach m ~prefix:"mvcc" (Mvcc.metrics t.chains);
    Txn.register_participant mgr
      { Txn.p_name = name; p_prepare = (fun _ -> ()); on_commit = on_commit t; on_abort = on_abort t };
    t

  let crash t =
    P.crash t.phys;
    t.sorted_rids <- None;
    Mvcc.clear t.chains;
    t.crashed <- true

  let maybe_present t rid =
    check_usable t;
    if not (P.maybe_mem t.phys rid) then begin
      P.note_negative t.phys;
      false
    end
    else begin
      let hit = P.mem t.phys rid in
      if not hit then P.note_false_positive t.phys;
      hit
    end

  let ops t =
    {
      Store.name = t.name;
      insert = insert_impl t;
      read = read_impl t;
      update = update_impl t;
      lock_write = lock_write_impl t;
      delete = delete_impl t;
      iter = iter_impl t;
      read_committed = read_committed_impl t;
      version_ts = version_ts_impl t;
      prune_versions = prune_versions_impl t;
      record_count = (fun () -> P.count t.phys);
      maybe_present = maybe_present t;
      in_flight = (fun () -> Hashtbl.length t.undo);
      checkpoint = checkpoint_impl t;
      metrics = t.metrics;
      crash = (fun () -> crash t);
      wal = t.wal;
      pipeline = t.pipeline;
    }

  (* Smallest candidate rid > [rid] in the store's residue class, so fresh
     rids after recovery keep the shard partitioning invariant. *)
  let align_after t rid =
    let n = Rid.to_int rid + 1 in
    if n <= t.rid_base then t.rid_base
    else t.rid_base + ((n - t.rid_base + t.rid_stride - 1) / t.rid_stride) * t.rid_stride

  let load_bulk t entries =
    if P.count t.phys > 0 then fail "load_bulk into non-empty store %s" t.name;
    P.presize t.phys (List.length entries);
    List.iter
      (fun (rid, payload) ->
        P.put t.phys rid payload;
        t.next_rid <- max t.next_rid (align_after t rid))
      entries;
    (* Baseline versions at ts 0: recovered state predates every future
       snapshot, and uncommitted pre-crash work never had a version. *)
    Mvcc.load t.chains ~ts:0 entries;
    t.sorted_rids <- None
end
