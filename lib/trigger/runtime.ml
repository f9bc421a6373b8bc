module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Rid = Ode_storage.Rid
module Oid = Ode_objstore.Oid
module Value = Ode_objstore.Value
module Intern = Ode_event.Intern
module Fsm = Ode_event.Fsm
module Metrics = Ode_util.Metrics

let src = Logs.Src.create "ode.trigger" ~doc:"Ode trigger runtime"

module Log = (val Logs.src_log src : Logs.LOG)

exception Tabort

exception Trigger_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Trigger_error msg)) fmt

type config = {
  filter : bool;
  cache : bool;
  mvcc : bool;
}

let default_config = { filter = true; cache = true; mvcc = true }

let reference_config = { filter = false; cache = false; mvcc = false }

module Obj_index = Ode_objstore.Hash_index.Make (struct
  type t = Oid.t

  let equal = Oid.equal
  let hash = Oid.hash
end)

(* One activation in the in-memory index. The entry is shared between the
   primary anchor's bucket and every secondary anchor's bucket, and carries
   a transactionally maintained mirror of the persistent statenum so [post]
   can consult the machine's live-event bitset without touching the store.
   [e_owner] is the id of the transaction with uncommitted changes to this
   activation (-1 = none): the mirror is only trusted by its owner or when
   unowned, so another transaction never filters on dirty state it is not
   allowed to read — it falls through to the store read and blocks there,
   exactly like the unfiltered path. *)
type entry = {
  e_rid : Rid.t;
  e_cls : string;
  e_index : int;  (* triggernum within [e_cls] *)
  mutable e_state : int;
  mutable e_owner : int;
  mutable e_info : Trigger_def.info option;  (* resolved lazily: at
      recovery-time [rebuild_index] the registry is still empty *)
}

(* A local (transaction-scoped) trigger activation: §8's "local rules" —
   no persistent storage, no locks, deallocated at end of transaction. *)
type local_act = {
  la_info : Trigger_def.info;
  la_obj : Oid.t;
  la_args : Value.t list;
  la_cls : string;
  mutable la_state : int;
  mutable la_active : bool;
}

type fire = {
  f_id : Trigger_state.id;
  f_info : Trigger_def.info;
  f_obj : Oid.t;
  f_args : Value.t list;
  f_ev_args : Value.t list;  (* payload of the completing event *)
  f_cls : string;  (* defining class *)
  f_local : local_act option;  (* Some for transaction-scoped activations *)
}

type index_change =
  | Idx_add of Oid.t * entry
  | Idx_remove of Oid.t * entry
  | Idx_move of entry * int  (* pre-move mirror state, for abort reversal *)

(* Write-back cache slot: the decoded state as this transaction last saw
   (or wrote) it. Dirty slots are encoded and flushed to the store once,
   in the commit prepare phase. [c_read_ts] is the commit timestamp the
   slot was filled at when it came from a lock-free read-committed read
   (>= 0): the first write to the slot must validate that the record's
   newest version is still that timestamp (first-updater-wins) and raises
   {!Store.Write_conflict} otherwise. -1 means the slot is covered by a
   real lock (S-locked read, own write) and needs no validation. *)
type centry = {
  mutable c_st : Trigger_state.t;
  mutable c_dirty : bool;
  mutable c_read_ts : int;
}

type txn_local = {
  mutable end_list : fire list;  (* reversed *)
  mutable dep_list : fire list;
  mutable indep_list : fire list;
  mutable touched : (Oid.t * string) list;
  touched_tbl : unit Oid.Tbl.t;  (* membership mirror of [touched] *)
  mutable index_journal : index_change list;
  mutable local_acts : local_act list;  (* reversed activation order *)
  cache : centry Rid.Tbl.t;
  mutable dirty : Rid.t list;  (* reversed first-dirtied order *)
  mutable enqueued_phoenix : bool;  (* drain at commit, whatever the hint *)
}

(* --- Lock-footprint validation mode (soundness checker for
   Ode_analysis.Concur). When a validator is installed, every firing
   pushes a frame; lock-relevant accesses performed while any frame is
   open are recorded into {e all} open frames (a nested cascade's locks
   belong to the outer trigger's transitive footprint too). On frame pop
   the validator receives the observed access set. The record is at
   class granularity, mirroring the static footprint's targets. *)
type access = Trig_read | Trig_write | Obj_read | Obj_write

type vframe = {
  vf_cls : string;
  vf_trigger : string;
  mutable vf_acc : (access * string) list;
}

type validator = cls:string -> trigger:string -> acc:(access * string) list -> unit

type t = {
  registry : Trigger_def.Registry.t;
  intern : Intern.t;
  store : Store.t;
  mgr : Txn.mgr;
  config : config;
  index : entry Obj_index.t;
  locals : (int, txn_local) Hashtbl.t;
  mutable fire_depth : int;
  mutable draining : bool;
  mutable phoenix_hint : int;
      (* over-approximation of queued phoenix entries; lets after-commit
         processing skip the drain scan entirely in the common case *)
  mutable frames : vframe list;  (* open validation frames, innermost first *)
  mutable validator : validator option;
  (* Concur-certified snapshot-safe triggers, keyed (class, trigger name):
     their firings — and everything their cascades read — take the
     lock-free MVCC read-committed path instead of S-locking. *)
  snap_safe : (string * string, unit) Hashtbl.t;
  mutable lock_free_depth : int;  (* > 0 inside a certified advance/fire *)
  metrics : Metrics.t;
  posts : Metrics.counter;
  index_probes : Metrics.counter;
  index_skips : Metrics.counter;
  fsm_moves : Metrics.counter;
  mask_evals : Metrics.counter;
  state_writes : Metrics.counter;
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  cache_flushes : Metrics.counter;
  fires_immediate : Metrics.counter;
  fires_end : Metrics.counter;
  fires_dependent : Metrics.counter;
  fires_independent : Metrics.counter;
  fires_phoenix : Metrics.counter;
  activations : Metrics.counter;
  deactivations : Metrics.counter;
  local_activations : Metrics.counter;
  snapshot_reads : Metrics.counter;
  s_locks_avoided : Metrics.counter;
  write_conflicts : Metrics.counter;
}

let registry t = t.registry
let intern t = t.intern
let mgr t = t.mgr
let in_firing t = t.fire_depth > 0
let in_validation_frame t = t.frames <> []

let set_validator t v =
  t.validator <- v;
  if v = None then t.frames <- []

let set_snapshot_safe t pairs =
  Hashtbl.reset t.snap_safe;
  List.iter (fun (cls, trigger) -> Hashtbl.replace t.snap_safe (cls, trigger) ()) pairs

let snapshot_safe t ~cls ~trigger = Hashtbl.mem t.snap_safe (cls, trigger)

let lock_free_reads_active t = t.lock_free_depth > 0

(* Run [f] with lock-free MVCC reads active (certified snapshot-safe
   advance or firing). Nested certified work just deepens the counter. *)
let with_lock_free t enabled f =
  if not enabled then f ()
  else begin
    t.lock_free_depth <- t.lock_free_depth + 1;
    Fun.protect ~finally:(fun () -> t.lock_free_depth <- t.lock_free_depth - 1) f
  end

(* No-op when no frame is open (one list-emptiness check on the hot
   path); otherwise dedup-insert into every open frame. *)
let note_lock t access cls =
  match t.frames with
  | [] -> ()
  | frames ->
      List.iter
        (fun fr ->
          if not (List.mem (access, cls) fr.vf_acc) then fr.vf_acc <- (access, cls) :: fr.vf_acc)
        frames

(* A shared-lock note that is skipped while lock-free reads are active:
   the read took no S lock, so it must not appear in the observed S set —
   the validation checker confirms certified cascades stay S-free. *)
let note_read_lock t cls = if t.lock_free_depth = 0 then note_lock t Trig_read cls

let note_object_access t ~cls ~write =
  if write then note_lock t Obj_write cls
  else if t.lock_free_depth = 0 then note_lock t Obj_read cls

let local t (txn : Txn.t) =
  match Hashtbl.find_opt t.locals txn.Txn.id with
  | Some l -> l
  | None ->
      let l =
        {
          end_list = [];
          dep_list = [];
          indep_list = [];
          touched = [];
          touched_tbl = Oid.Tbl.create 16;
          index_journal = [];
          local_acts = [];
          cache = Rid.Tbl.create 16;
          dirty = [];
          enqueued_phoenix = false;
        }
      in
      Hashtbl.replace t.locals txn.Txn.id l;
      l

let local_opt t (txn : Txn.t) = Hashtbl.find_opt t.locals txn.Txn.id

(* The in-memory activation index must follow transaction outcomes: journal
   every change and reverse the journal on abort. [Idx_move] records are
   pure undo information — the mirror mutation happened at step time. *)
let same_entry e e' = e == e'

let apply_index t = function
  | Idx_add (obj, e) -> Obj_index.add t.index obj e
  | Idx_remove (obj, e) -> ignore (Obj_index.remove t.index obj (same_entry e))
  | Idx_move _ -> ()

let reverse_index t = function
  | Idx_add (obj, e) -> ignore (Obj_index.remove t.index obj (same_entry e))
  | Idx_remove (obj, e) -> Obj_index.add t.index obj e
  | Idx_move (e, old_state) ->
      e.e_state <- old_state;
      e.e_owner <- -1

let journal_index t txn change =
  apply_index t change;
  let l = local t txn in
  l.index_journal <- change :: l.index_journal

(* Participant hook run inside [Txn.abort]: reverse the index journal,
   drop the write-back cache, and discard work that dies with the
   transaction. The !dependent list is deliberately kept — §5.5 runs it
   after roll-back; [after_abort] consumes it. *)
let on_txn_abort t (txn : Txn.t) =
  match local_opt t txn with
  | None -> ()
  | Some l ->
      (* Journal is most-recent-first, so a multiply-moved entry's mirror
         lands back on its pre-transaction state. *)
      List.iter (fun change -> reverse_index t change) l.index_journal;
      l.index_journal <- [];
      Rid.Tbl.reset l.cache;
      l.dirty <- [];
      l.end_list <- [];
      l.dep_list <- [];
      l.touched <- [];
      Oid.Tbl.reset l.touched_tbl

(* Commit prepare phase: encode and write every dirty cached state while
   the transaction is still active, before any participant's [on_commit]
   forces the WAL — so deferred trigger-state writes are exactly as
   durable as eager ones. Deterministic flush order (first-dirtied first);
   deactivated rids were evicted from the cache and are skipped. *)
let flush_cache t (txn : Txn.t) =
  match local_opt t txn with
  | None -> ()
  | Some l ->
      List.iter
        (fun rid ->
          match Rid.Tbl.find_opt l.cache rid with
          | Some ce when ce.c_dirty ->
              t.store.Store.update txn rid (Trigger_state.encode ce.c_st);
              ce.c_dirty <- false;
              Metrics.incr t.cache_flushes
          | Some _ | None -> ())
        (List.rev l.dirty);
      l.dirty <- []

(* Commit: the mirrors this transaction wrote become the committed truth;
   release entry ownership so other transactions may filter on them. *)
let on_txn_commit t (txn : Txn.t) =
  match local_opt t txn with
  | None -> ()
  | Some l ->
      List.iter
        (function
          | Idx_add (_, e) | Idx_move (e, _) -> e.e_owner <- -1
          | Idx_remove _ -> ())
        l.index_journal;
      l.index_journal <- []

let create ?(config = default_config) ~mgr ~intern ~store () =
  let m = Metrics.create () in
  let t =
    {
      registry = Trigger_def.Registry.create ();
      intern;
      store;
      mgr;
      config;
      index = Obj_index.create ();
      locals = Hashtbl.create 8;
      fire_depth = 0;
      draining = false;
      phoenix_hint = 0;
      frames = [];
      validator = None;
      snap_safe = Hashtbl.create 8;
      lock_free_depth = 0;
      metrics = m;
      posts = Metrics.counter m "posts";
      index_probes = Metrics.counter m "index_probes";
      index_skips = Metrics.counter m "index_skips";
      fsm_moves = Metrics.counter m "fsm_moves";
      mask_evals = Metrics.counter m "mask_evals";
      state_writes = Metrics.counter m "state_writes";
      cache_hits = Metrics.counter m "cache_hits";
      cache_misses = Metrics.counter m "cache_misses";
      cache_flushes = Metrics.counter m "cache_flushes";
      fires_immediate = Metrics.counter m "fires_immediate";
      fires_end = Metrics.counter m "fires_end";
      fires_dependent = Metrics.counter m "fires_dependent";
      fires_independent = Metrics.counter m "fires_independent";
      fires_phoenix = Metrics.counter m "fires_phoenix";
      activations = Metrics.counter m "activations";
      deactivations = Metrics.counter m "deactivations";
      local_activations = Metrics.counter m "local_activations";
      snapshot_reads = Metrics.counter m "snapshot_reads";
      s_locks_avoided = Metrics.counter m "s_locks_avoided";
      write_conflicts = Metrics.counter m "write_conflicts";
    }
  in
  Txn.register_participant mgr
    {
      Txn.p_name = "trigger-runtime";
      p_prepare = flush_cache t;
      on_commit = on_txn_commit t;
      on_abort = on_txn_abort t;
    };
  t

let config t = t.config

let register_class t descriptor = Trigger_def.Registry.register t.registry descriptor

(* Visit every committed trigger-store row in rid order through a
   snapshot reader: no locks, so the scan never blocks on an open writer's
   X locks, and never sees its uncommitted rows. *)
let scan_committed t f =
  let scan = Txn.begin_txn ~system:true ~snapshot:true t.mgr in
  t.store.Store.iter scan f;
  Txn.commit scan

let rebuild_index ?object_exists t txn =
  Obj_index.clear t.index;
  t.phoenix_hint <- 0;
  (* A crash between the two stores' commit flushes can leave a
     TriggerState row whose anchoring object never became durable (or
     vice versa). When the caller supplies [object_exists], such dangling
     rows are garbage-collected here instead of indexed, so post-recovery
     trigger state is always consistent with the surviving objects. The
     scan is lock-free; only those deletes run (and lock) in [txn]. *)
  let dangling = ref [] in
  scan_committed t (fun rid payload ->
      match Trigger_state.decode_index payload with
      | Some st ->
          let alive =
            match object_exists with
            | None -> true
            | Some exists -> exists st.Trigger_state.iv_trigobj
          in
          if alive then begin
            let entry =
              {
                e_rid = rid;
                e_cls = st.Trigger_state.iv_trigobjtype;
                e_index = st.Trigger_state.iv_triggernum;
                e_state = st.Trigger_state.iv_statenum;
                e_owner = -1;
                e_info = None;
              }
            in
            Obj_index.add t.index st.Trigger_state.iv_trigobj entry;
            List.iter (fun anchor -> Obj_index.add t.index anchor entry) st.Trigger_state.iv_anchors
          end
          else dangling := rid :: !dangling
      | None -> t.phoenix_hint <- t.phoenix_hint + 1);
  List.iter (fun rid -> t.store.Store.delete txn rid) !dangling

(* ------------------------------------------------------------------ *)
(* Machine moves: {!Fsm.advance} and {!Fsm.settle} with this runtime's
   mask context and counters. *)

let count_move t () = Metrics.incr t.fsm_moves

let eval_mask t (info : Trigger_def.info) ctx m =
  match List.assoc_opt m info.Trigger_def.t_masks with
  | Some fn ->
      Metrics.incr t.mask_evals;
      fn ctx
  | None -> fail "trigger %s: no function for mask m%d" info.Trigger_def.t_name m

let settle t ~(info : Trigger_def.info) ~ctx state =
  Fsm.settle ~on_move:(count_move t) info.Trigger_def.t_fsm ~mask:(eval_mask t info ctx) state

(* PostEvent steps a-b for one activation: [Some final] when the machine
   moved ([final] is its settled state or [dead_state]), [None] when it
   ignored the event. *)
let advance t ~(info : Trigger_def.info) ~ctx state event =
  match
    Fsm.advance ~on_move:(count_move t) info.Trigger_def.t_fsm ~state ~event
      ~mask:(eval_mask t info ctx)
  with
  | Fsm.Stay -> None
  | Fsm.Dead -> Some Trigger_state.dead_state
  | Fsm.Goto final -> Some final

(* "A check is made to see if an accept state has been reached" after a
   move (§5.4.5): an event the machine ignores never re-fires a trigger
   parked in an accept state. *)
let fires (info : Trigger_def.info) final =
  final <> Trigger_state.dead_state && Fsm.is_accept info.Trigger_def.t_fsm final

(* ------------------------------------------------------------------ *)
(* Activation / deactivation (§5.4.1). *)

let read_state t txn id =
  match t.store.Store.read txn id with
  | None -> None
  | Some payload -> begin
      match Trigger_state.decode payload with
      | Trigger_state.State st -> Some st
      | Trigger_state.Phoenix _ -> None
    end

(* Resolve (and memoize) an index entry's trigger definition; built lazily
   because recovery indexes rows before classes are re-registered. *)
let info_of t entry =
  match entry.e_info with
  | Some info -> info
  | None ->
      let info = Trigger_def.Registry.trigger_info t.registry ~cls:entry.e_cls ~index:entry.e_index in
      entry.e_info <- Some info;
      info

(* Lock-free variant of the cache-miss path: read the newest committed
   version of the trigger state (or the in-place state when this
   transaction already holds the record's lock — reads-your-own-writes)
   with no S lock. The version timestamp is remembered on the cache slot
   for first-updater-wins validation at the first write. *)
let mvcc_read t txn id =
  let l = local t txn in
  match Rid.Tbl.find_opt l.cache id with
  | Some ce ->
      Metrics.incr t.cache_hits;
      Some ce.c_st
  | None -> begin
      let ts, payload = t.store.Store.read_committed txn id in
      match payload with
      | None -> None
      | Some payload -> begin
          match Trigger_state.decode payload with
          | Trigger_state.Phoenix _ -> None
          | Trigger_state.State st ->
              Metrics.incr t.cache_misses;
              Metrics.incr t.snapshot_reads;
              if ts >= 0 then Metrics.incr t.s_locks_avoided;
              Rid.Tbl.replace l.cache id { c_st = st; c_dirty = false; c_read_ts = ts };
              Some st
        end
    end

(* All reads of persistent trigger state go through here: with the cache
   enabled, the first read per (txn, rid) decodes and caches; repeated
   posts in the same transaction then skip both the store read and the
   decode. Reads see this transaction's own deferred writes. Inside a
   certified snapshot-safe advance/firing the miss path is the lock-free
   one. *)
let cached_read t txn id =
  if not t.config.cache then read_state t txn id
  else if lock_free_reads_active t then mvcc_read t txn id
  else begin
    let l = local t txn in
    match Rid.Tbl.find_opt l.cache id with
    | Some ce ->
        Metrics.incr t.cache_hits;
        Some ce.c_st
    | None -> begin
        match read_state t txn id with
        | None -> None
        | Some st ->
            Metrics.incr t.cache_misses;
            Rid.Tbl.replace l.cache id { c_st = st; c_dirty = false; c_read_ts = -1 };
            Some st
      end
  end

(* All writes of persistent trigger state go through here. With the cache
   enabled the write is deferred to the commit prepare phase, but the
   exclusive record lock is taken {e now}, so lock acquisition order —
   and therefore [Would_block]/[Deadlock] behaviour — is identical to the
   eager path. *)
let write_state t txn id st =
  Metrics.incr t.state_writes;
  if not t.config.cache then t.store.Store.update txn id (Trigger_state.encode st)
  else begin
    let key = Ode_storage.Lock_manager.Record (t.store.Store.name, id) in
    Store.lock_or_raise txn key Ode_storage.Lock_manager.X;
    let l = local t txn in
    match Rid.Tbl.find_opt l.cache id with
    | Some ce ->
        (* A slot filled by a lock-free read validates now that the X lock
           is held: if the record's newest version moved past the read
           timestamp, some other transaction committed in between —
           first-updater-wins, the writer aborts and retries. *)
        if ce.c_read_ts >= 0 then begin
          if t.store.Store.version_ts id <> ce.c_read_ts then begin
            Metrics.incr t.write_conflicts;
            raise (Store.Write_conflict { txn = txn.Txn.id; key })
          end;
          ce.c_read_ts <- -1
        end;
        ce.c_st <- st;
        if not ce.c_dirty then begin
          ce.c_dirty <- true;
          l.dirty <- id :: l.dirty
        end
    | None ->
        Rid.Tbl.replace l.cache id { c_st = st; c_dirty = true; c_read_ts = -1 };
        l.dirty <- id :: l.dirty
  end

(* Evict a rid from the write-back cache (deactivation deletes the store
   record eagerly; a later flush of a stale slot would be an update of a
   missing record). *)
let evict_cached t txn id =
  if t.config.cache then begin
    match local_opt t txn with
    | None -> ()
    | Some l -> Rid.Tbl.remove l.cache id
  end

let lookup_trigger t ~defining_cls ~trigger ~obj_cls ~args =
  let info =
    match Trigger_def.Registry.find_trigger t.registry ~cls:defining_cls ~name:trigger with
    | Some info -> info
    | None -> fail "class %s has no trigger %s" defining_cls trigger
  in
  if not (Trigger_def.Registry.is_subclass t.registry ~sub:obj_cls ~super:defining_cls) then
    fail "cannot activate %s::%s on an object of class %s" defining_cls trigger obj_cls;
  if List.length args <> List.length info.Trigger_def.t_params then
    fail "trigger %s::%s expects %d argument(s), got %d" defining_cls trigger
      (List.length info.Trigger_def.t_params)
      (List.length args);
  info

let activate ?(anchors = []) t txn ~defining_cls ~trigger ~obj ~obj_cls ~args =
  let info = lookup_trigger t ~defining_cls ~trigger ~obj_cls ~args in
  let start = info.Trigger_def.t_fsm.Fsm.start in
  let st =
    {
      Trigger_state.triggernum = info.Trigger_def.t_index;
      trigobj = obj;
      trigobjtype = defining_cls;
      statenum = start;
      args;
      anchors;
    }
  in
  let id = t.store.Store.insert txn (Trigger_state.encode st) in
  note_lock t Trig_write defining_cls;
  Metrics.incr t.activations;
  Log.debug (fun m ->
      m "activate %s::%s on %a (t%d)" defining_cls trigger Oid.pp obj txn.Txn.id);
  (* A machine whose start state is already a mask state evaluates
     immediately. *)
  let ctx = { Trigger_def.txn; obj; args; ev_args = []; trigger_id = id } in
  let settled = settle t ~info ~ctx start in
  if settled <> start then write_state t txn id (Trigger_state.with_statenum st settled);
  let entry =
    {
      e_rid = id;
      e_cls = defining_cls;
      e_index = info.Trigger_def.t_index;
      e_state = settled;
      e_owner = txn.Txn.id;  (* uncommitted activation: only we may filter *)
      e_info = Some info;
    }
  in
  journal_index t txn (Idx_add (obj, entry));
  List.iter (fun anchor -> journal_index t txn (Idx_add (anchor, entry))) anchors;
  id

(* §8 "local rules": a transaction-scoped activation held only in program
   memory — no store record, no index entry, no locks; it evaporates when
   the transaction finishes, whatever the outcome. *)
let activate_local t txn ~defining_cls ~trigger ~obj ~obj_cls ~args =
  let info = lookup_trigger t ~defining_cls ~trigger ~obj_cls ~args in
  let start = info.Trigger_def.t_fsm.Fsm.start in
  let act =
    {
      la_info = info;
      la_obj = obj;
      la_args = args;
      la_cls = defining_cls;
      la_state = start;
      la_active = true;
    }
  in
  let ctx = { Trigger_def.txn; obj; args; ev_args = []; trigger_id = Rid.of_int (-1) } in
  act.la_state <- settle t ~info ~ctx start;
  let l = local t txn in
  l.local_acts <- act :: l.local_acts;
  Metrics.incr t.local_activations

let find_entry t ~obj ~rid =
  List.find_opt (fun e -> Rid.equal e.e_rid rid) (Obj_index.find_all t.index obj)

let deactivate t txn id =
  match cached_read t txn id with
  | None -> ()
  | Some st ->
      note_read_lock t st.Trigger_state.trigobjtype;
      note_lock t Trig_write st.Trigger_state.trigobjtype;
      evict_cached t txn id;
      t.store.Store.delete txn id;
      (match find_entry t ~obj:st.Trigger_state.trigobj ~rid:id with
      | None -> ()
      | Some entry ->
          journal_index t txn (Idx_remove (st.Trigger_state.trigobj, entry));
          List.iter
            (fun anchor -> journal_index t txn (Idx_remove (anchor, entry)))
            st.Trigger_state.anchors);
      Metrics.incr t.deactivations;
      Log.debug (fun m -> m "deactivate trigger #%d on %a" st.Trigger_state.triggernum Oid.pp st.Trigger_state.trigobj)

let on_object_deleted t txn obj =
  let entries = Obj_index.find_all t.index obj in
  List.iter
    (fun entry ->
      match cached_read t txn entry.e_rid with
      | None -> ()
      | Some st ->
          note_read_lock t st.Trigger_state.trigobjtype;
          if Oid.equal st.Trigger_state.trigobj obj then deactivate t txn entry.e_rid
          else
            (* [obj] was a secondary anchor: keep the trigger, drop the
               routing entry. *)
            journal_index t txn (Idx_remove (obj, entry)))
    entries

let active_on t txn obj =
  let entries = Obj_index.find_all t.index obj in
  List.filter_map
    (fun entry ->
      match cached_read t txn entry.e_rid with
      | Some st ->
          note_read_lock t st.Trigger_state.trigobjtype;
          Some (entry.e_rid, st)
      | None -> None)
    entries

(* ------------------------------------------------------------------ *)
(* Firing. *)

let enqueue_phoenix t txn fire =
  let entry =
    {
      Trigger_state.ph_cls = fire.f_cls;
      ph_triggernum = fire.f_info.Trigger_def.t_index;
      ph_obj = fire.f_obj;
      ph_args = fire.f_args;
      ph_ev_args = fire.f_ev_args;
    }
  in
  ignore (t.store.Store.insert txn (Trigger_state.encode_phoenix entry));
  note_lock t Trig_write fire.f_cls;
  t.phoenix_hint <- t.phoenix_hint + 1

(* A certified snapshot-safe firing (and everything its cascade reads)
   runs on the lock-free MVCC path; requires the write-back cache, which
   carries the read timestamps for write-time validation. *)
let certified_fire t fire =
  t.config.mvcc && t.config.cache
  && Hashtbl.mem t.snap_safe (fire.f_cls, fire.f_info.Trigger_def.t_name)

let run_action t txn fire =
  Log.debug (fun m ->
      m "fire %s::%s on %a (%a, t%d)" fire.f_cls fire.f_info.Trigger_def.t_name Oid.pp fire.f_obj
        Coupling.pp fire.f_info.Trigger_def.t_coupling txn.Txn.id);
  let ctx =
    {
      Trigger_def.txn;
      obj = fire.f_obj;
      args = fire.f_args;
      ev_args = fire.f_ev_args;
      trigger_id = fire.f_id;
    }
  in
  if t.fire_depth > 64 then fail "trigger cascade deeper than 64";
  t.fire_depth <- t.fire_depth + 1;
  let lock_free = certified_fire t fire in
  match t.validator with
  | None ->
      Fun.protect
        ~finally:(fun () -> t.fire_depth <- t.fire_depth - 1)
        (fun () -> with_lock_free t lock_free (fun () -> fire.f_info.Trigger_def.t_action ctx))
  | Some validate ->
      (* Validation mode: open a frame for this firing; the finally block
         still validates when the action aborts — locks acquired before
         the abort were real acquisitions and must be inside the static
         footprint. *)
      let fr =
        { vf_cls = fire.f_cls; vf_trigger = fire.f_info.Trigger_def.t_name; vf_acc = [] }
      in
      t.frames <- fr :: t.frames;
      Fun.protect
        ~finally:(fun () ->
          t.fire_depth <- t.fire_depth - 1;
          (match t.frames with _ :: rest -> t.frames <- rest | [] -> ());
          validate ~cls:fr.vf_cls ~trigger:fr.vf_trigger ~acc:fr.vf_acc)
        (fun () -> with_lock_free t lock_free (fun () -> fire.f_info.Trigger_def.t_action ctx))

let route_fire t txn fire =
  let info = fire.f_info in
  (* Once-only triggers are deactivated when they fire (§5.4.5 step c); for
     detached modes this happens at detection time, in the detecting
     transaction, so a second detection cannot double-fire. *)
  let deactivate_if_once_only () =
    if not info.Trigger_def.t_perpetual then begin
      match fire.f_local with
      | Some act -> act.la_active <- false
      | None -> deactivate t txn fire.f_id
    end
  in
  match info.Trigger_def.t_coupling with
  | Coupling.Immediate ->
      Metrics.incr t.fires_immediate;
      run_action t txn fire;
      deactivate_if_once_only ()
  | Coupling.End ->
      Metrics.incr t.fires_end;
      let l = local t txn in
      l.end_list <- fire :: l.end_list;
      deactivate_if_once_only ()
  | Coupling.Dependent ->
      Metrics.incr t.fires_dependent;
      let l = local t txn in
      l.dep_list <- fire :: l.dep_list;
      deactivate_if_once_only ()
  | Coupling.Independent ->
      Metrics.incr t.fires_independent;
      let l = local t txn in
      l.indep_list <- fire :: l.indep_list;
      deactivate_if_once_only ()
  | Coupling.Phoenix ->
      Metrics.incr t.fires_phoenix;
      enqueue_phoenix t txn fire;
      (local t txn).enqueued_phoenix <- true;
      deactivate_if_once_only ()

(* Advance this transaction's local activations anchored at [obj]; ready
   local triggers are appended to [ready] in activation order. *)
let advance_locals t txn ~obj ~event ~payload ready =
  match local_opt t txn with
  | None -> ()
  | Some l ->
      let advance_local act =
        if
          act.la_active
          && Oid.equal act.la_obj obj
          && act.la_state <> Trigger_state.dead_state
        then begin
          let info = act.la_info in
          let ctx =
            {
              Trigger_def.txn;
              obj;
              args = act.la_args;
              ev_args = payload;
              trigger_id = Rid.of_int (-1);
            }
          in
          match advance t ~info ~ctx act.la_state event with
          | None -> ()
          | Some final ->
              act.la_state <- final;
              if fires info final then
                ready :=
                  {
                    f_id = Rid.of_int (-1);
                    f_info = info;
                    f_obj = obj;
                    f_args = act.la_args;
                    f_ev_args = payload;
                    f_cls = act.la_cls;
                    f_local = Some act;
                  }
                  :: !ready
        end
      in
      List.iter advance_local (List.rev l.local_acts)

(* ------------------------------------------------------------------ *)
(* PostEvent (§5.4.5). *)

let post ?(payload = []) t txn ~obj ~event =
  if Logs.Src.level src = Some Logs.Debug then (* no message closure per post *)
    Log.debug (fun m ->
        m "post %s to %a (t%d)" (Intern.name_of_id t.intern event) Oid.pp obj txn.Txn.id);
  Metrics.incr t.posts;
  Metrics.incr t.index_probes;
  let ready = ref [] in
  let advance_entry entry =
    (* Fast path: the entry's state mirror plus the machine's per-state
       live-event bitset prove the post is a no-op — no store read, no
       decode, no lock. The mirror is only consulted when this
       transaction owns the entry or nobody does; an entry owned by
       another in-flight transaction takes the slow path and blocks on
       the record lock exactly as the unfiltered engine would. *)
    let skip =
      t.config.filter
      && (entry.e_owner = -1 || entry.e_owner = txn.Txn.id)
      && (entry.e_state = Trigger_state.dead_state
         ||
         let info = info_of t entry in
         not (Fsm.event_live info.Trigger_def.t_fsm ~state:entry.e_state ~event))
    in
    if skip then Metrics.incr t.index_skips
    else begin
      (* A certified snapshot-safe trigger advances lock-free: its state
         read resolves against the newest committed version with no S
         lock; the state write (if the machine moves) still X-locks and
         validates first-updater-wins. *)
      let lock_free =
        t.lock_free_depth > 0
        || t.config.mvcc && t.config.cache
           && Hashtbl.mem t.snap_safe (entry.e_cls, (info_of t entry).Trigger_def.t_name)
      in
      with_lock_free t lock_free @@ fun () ->
      match cached_read t txn entry.e_rid with
      | None -> ()
      | Some st ->
          note_read_lock t entry.e_cls;
          if st.Trigger_state.statenum <> Trigger_state.dead_state then begin
            let info = info_of t entry in
            (* Masks and actions always see the trigger's primary anchor,
               even when the posted-to object is a secondary anchor of an
               inter-object trigger. *)
            let primary = st.Trigger_state.trigobj in
            let ctx =
              {
                Trigger_def.txn;
                obj = primary;
                args = st.Trigger_state.args;
                ev_args = payload;
                trigger_id = entry.e_rid;
              }
            in
            match advance t ~info ~ctx st.Trigger_state.statenum event with
            | None -> ()
            | Some final ->
                if final <> st.Trigger_state.statenum then begin
                  note_lock t Trig_write entry.e_cls;
                  write_state t txn entry.e_rid (Trigger_state.with_statenum st final);
                  (* Mirror the move so filtering decisions see the new state;
                     journal the old mirror for abort reversal and mark this
                     transaction as owner until it resolves. If we already own
                     the entry an undo record from this transaction exists and
                     reversal restores the oldest state, so one suffices. *)
                  if entry.e_owner <> txn.Txn.id then
                    journal_index t txn (Idx_move (entry, entry.e_state));
                  entry.e_state <- final;
                  entry.e_owner <- txn.Txn.id
                end;
                if fires info final then
                  ready :=
                    {
                      f_id = entry.e_rid;
                      f_info = info;
                      f_obj = primary;
                      f_args = st.Trigger_state.args;
                      f_ev_args = payload;
                      f_cls = st.Trigger_state.trigobjtype;
                      f_local = None;
                    }
                    :: !ready
          end
    end
  in
  (* Advance every active trigger before firing any (§5.4.5): an action
     must not affect another trigger's mask evaluation for this event. *)
  List.iter advance_entry (Obj_index.find_all t.index obj);
  advance_locals t txn ~obj ~event ~payload ready;
  List.iter (route_fire t txn) (List.rev !ready)

(* ------------------------------------------------------------------ *)
(* Transaction events and coupling-mode processing (§5.5). *)

let note_access t txn ~obj ~cls =
  match Trigger_def.Registry.find t.registry cls with
  | None -> ()
  | Some d ->
      if d.Trigger_def.d_txn_events <> [] then begin
        let l = local t txn in
        (* First access wins (§5.5); the hashtable mirror keeps this O(1)
           for transactions that touch many objects. *)
        if not (Oid.Tbl.mem l.touched_tbl obj) then begin
          Oid.Tbl.replace l.touched_tbl obj ();
          l.touched <- (obj, cls) :: l.touched
        end
      end

let post_txn_event t txn basic =
  match local_opt t txn with
  | None -> ()
  | Some l ->
      let entries = List.rev l.touched in
      List.iter
        (fun (obj, cls) ->
          match Trigger_def.Registry.find t.registry cls with
          | None -> ()
          | Some d ->
              List.iter
                (fun (declared, event_id) ->
                  if Intern.basic_equal declared basic then post t txn ~obj ~event:event_id)
                d.Trigger_def.d_txn_events)
        entries

let drain_end_list t txn =
  let budget = ref 1000 in
  let rec go () =
    match local_opt t txn with
    | None -> ()
    | Some l ->
        let fires = List.rev l.end_list in
        l.end_list <- [];
        if fires <> [] then begin
          decr budget;
          if !budget < 0 then fail "end-coupled trigger loop did not quiesce";
          List.iter (run_action t txn) fires;
          go ()
        end
  in
  go ()

let before_commit t txn =
  drain_end_list t txn;
  post_txn_event t txn Intern.Before_tcomplete;
  drain_end_list t txn

let before_abort t txn = post_txn_event t txn Intern.Before_tabort

(* Run one detached action in its own system transaction, with full trigger
   orchestration, so detached actions can themselves fire triggers. *)
let rec run_detached t ~dependency fire =
  let txn = Txn.begin_txn ~system:true t.mgr in
  (match dependency with Some on -> Txn.add_dependency txn ~on | None -> ());
  match
    run_action t txn fire;
    before_commit t txn;
    Txn.commit txn
  with
  | () -> after_commit t txn
  | exception Tabort -> if Txn.is_active txn then abort_with_triggers t txn else after_abort t txn
  | exception Txn.Dependency_failed _ -> after_abort t txn

and after_commit t (txn : Txn.t) =
  (* Detached work queued by [txn] itself (it committed). *)
  let l = local_opt t txn in
  Hashtbl.remove t.locals txn.Txn.id;
  (match l with
  | None -> ()
  | Some l ->
      (* A drain under another transaction cannot see this one's
         uncommitted entries and may have reset the hint below them. *)
      if l.enqueued_phoenix then t.phoenix_hint <- max 1 t.phoenix_hint;
      List.iter (run_detached t ~dependency:(Some txn)) (List.rev l.dep_list);
      List.iter (run_detached t ~dependency:None) (List.rev l.indep_list));
  drain_phoenix t

and after_abort t (txn : Txn.t) =
  (* End and dependent work died with the transaction (cleared by the abort
     participant); independent work survives (§5.5: the abort routine
     checks the !dependent list after finishing roll-back). *)
  match local_opt t txn with
  | None -> ()
  | Some l ->
      let indep = List.rev l.indep_list in
      Hashtbl.remove t.locals txn.Txn.id;
      List.iter (run_detached t ~dependency:None) indep

and abort_with_triggers t txn =
  before_abort t txn;
  Txn.abort txn;
  after_abort t txn

and drain_phoenix t =
  (* The hint is an over-approximation (an aborted enqueue leaves it high);
     a scan that finds nothing resets it. *)
  if t.phoenix_hint > 0 && not t.draining then begin
    t.draining <- true;
    Fun.protect
      ~finally:(fun () -> t.draining <- false)
      (fun () ->
        let rounds = ref 0 in
        let continue_ = ref true in
        let previous = ref [] in
        while !continue_ do
          incr rounds;
          if !rounds > 100 then fail "phoenix queue did not quiesce";
          (* Collect committed entries in one lock-free scan, then run each
             in its own transaction that re-reads the entry under its lock,
             deletes it and performs the action atomically — restart-safe:
             a crash before that commit leaves the entry queued. *)
          let entries = ref [] in
          scan_committed t (fun rid payload ->
              match Trigger_state.decode payload with
              | Trigger_state.Phoenix entry -> entries := (rid, entry) :: !entries
              | Trigger_state.State _ -> ());
          t.phoenix_hint <- List.length !entries;
          let rids = List.map fst !entries in
          if !entries = [] || rids = !previous then
            (* Empty, or no progress (an action keeps aborting): leave the
               remainder queued for the next drain — phoenix semantics
               retry forever, across restarts. *)
            continue_ := false
          else begin
            previous := rids;
            List.iter (run_phoenix_entry t) (List.rev !entries)
          end
        done)
  end

and run_phoenix_entry t (rid, entry) =
  let info =
    Trigger_def.Registry.trigger_info t.registry ~cls:entry.Trigger_state.ph_cls
      ~index:entry.Trigger_state.ph_triggernum
  in
  let fire =
    {
      f_id = rid;
      f_info = info;
      f_obj = entry.Trigger_state.ph_obj;
      f_args = entry.Trigger_state.ph_args;
      f_ev_args = entry.Trigger_state.ph_ev_args;
      f_cls = entry.Trigger_state.ph_cls;
      f_local = None;
    }
  in
  let txn = Txn.begin_txn ~system:true t.mgr in
  let still_queued = t.store.Store.read txn rid <> None in
  match
    if still_queued then begin
      t.store.Store.delete txn rid;
      run_action t txn fire;
      before_commit t txn
    end;
    Txn.commit txn
  with
  | () -> after_commit t txn
  | exception Tabort -> if Txn.is_active txn then abort_with_triggers t txn else after_abort t txn

let forget t (txn : Txn.t) = Hashtbl.remove t.locals txn.Txn.id

let commit_with_triggers t txn =
  before_commit t txn;
  Txn.commit txn;
  after_commit t txn

let phoenix_backlog t =
  let count = ref 0 in
  scan_committed t (fun _ payload ->
      match Trigger_state.decode payload with
      | Trigger_state.Phoenix _ -> incr count
      | Trigger_state.State _ -> ());
  !count

let metrics t = t.metrics
