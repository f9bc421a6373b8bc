(** The trigger runtime: event posting, trigger firing, coupling modes and
    transaction hooks (§5.4–§5.5).

    One runtime serves one transaction manager. Trigger activations are
    persistent {!Trigger_state} records in a dedicated store (design goal 5:
    object layout never changes), indexed in memory by anchor object; the
    index is journalled per transaction and rolled back on abort, and can be
    rebuilt from the store after recovery.

    [post] implements §5.4.5's PostEvent: look up the object's active
    triggers, advance every machine on the event (cascading mask
    pseudo-events to quiescence), and only then fire the accepting triggers
    — "no triggers are fired until all triggers have had the basic event
    posted", so one action cannot perturb another trigger's mask. Once-only
    triggers are deactivated after firing; [perpetual] triggers keep
    running from the accept state.

    Transactions must be finished through {!commit_with_triggers} /
    {!abort_with_triggers} (or the individual hook functions in the same
    order) so that end-coupled actions, [before tcomplete]/[before tabort]
    posting, and detached system transactions happen per §5.5. *)

exception Tabort
(** Raised by a trigger action (or application code) to abort the current
    transaction — the paper's [tabort] statement, which had to be allowed
    outside static transaction blocks precisely for trigger actions (§6). *)

exception Trigger_error of string

type config = {
  filter : bool;  (** skip store access for events proven irrelevant to an
      activation's current FSM state (live-event bitsets in the index) *)
  cache : bool;  (** transaction-scoped write-back cache of decoded
      {!Trigger_state.t}: reads decode once per transaction, writes are
      encoded and flushed once at commit-prepare, discarded on abort *)
  mvcc : bool;  (** route {!Ode_analysis.Concur}-certified snapshot-safe
      trigger advances and cascades through the lock-free MVCC
      read-committed path (no S locks; first-updater-wins write
      validation). Requires [cache]. *)
}
(** Posting-engine layer switches. Every event step goes through the
    machine's sparse transition array ({!Ode_event.Fsm.advance}); the
    layers only decide which activations are read and how their state is
    stored. They are pure optimisations:
    observable trigger behaviour is identical under any combination (the
    differential tests drive {!default_config} against
    {!reference_config}), except that filtered posts skip the shared
    record locks the reference path would take on irrelevant
    activations, and certified mvcc reads take none at all. *)

val default_config : config
(** All layers on. *)

val reference_config : config
(** The pre-optimisation engine: every candidate activation is read from
    the store, decoded, stepped and written back eagerly. *)

type t

val create :
  ?config:config ->
  mgr:Ode_storage.Txn.mgr ->
  intern:Ode_event.Intern.t ->
  store:Ode_storage.Store.t ->
  unit ->
  t

val config : t -> config

val registry : t -> Trigger_def.Registry.t
val intern : t -> Ode_event.Intern.t
val mgr : t -> Ode_storage.Txn.mgr

val register_class : t -> Trigger_def.descriptor -> unit

val rebuild_index : ?object_exists:(Ode_objstore.Oid.t -> bool) -> t -> Ode_storage.Txn.t -> unit
(** Re-derive the object→activation index (in rid order) from a
    lock-free snapshot scan of the trigger store (after
    {!Ode_storage.Recovery}). When [object_exists] is given, activation
    rows anchored at an object it rejects are deleted in the given
    transaction rather than indexed — recovery-time GC for rows orphaned
    by a crash between the two stores' commit flushes. *)

val activate :
  ?anchors:Ode_objstore.Oid.t list ->
  t ->
  Ode_storage.Txn.t ->
  defining_cls:string ->
  trigger:string ->
  obj:Ode_objstore.Oid.t ->
  obj_cls:string ->
  args:Ode_objstore.Value.t list ->
  Trigger_state.id
(** Create and index a TriggerState in its FSM start state (§5.4.1),
    running any start-state mask cascade. Checks that [obj_cls] is
    [defining_cls] or a subclass, that the trigger exists, and the argument
    arity.

    [anchors] implements the §8 inter-object extension: events posted to
    any of those additional objects are also routed to this activation, so
    a trigger can watch several objects (e.g. a stock and the gold price).
    The mask/action context still names the primary [obj]. *)

val activate_local :
  t ->
  Ode_storage.Txn.t ->
  defining_cls:string ->
  trigger:string ->
  obj:Ode_objstore.Oid.t ->
  obj_cls:string ->
  args:Ode_objstore.Value.t list ->
  unit
(** §8 "local rules": a transaction-scoped activation kept only in program
    memory — no persistent TriggerState, no index entry, and no locks ever
    taken for its FSM advancement. It is deallocated when the transaction
    finishes (commit or abort); useful for transaction-internal
    constraints. *)

val deactivate : t -> Ode_storage.Txn.t -> Trigger_state.id -> unit
(** Remove the TriggerState and its index entry; idempotent on
    already-deactivated ids. *)

val active_on :
  t -> Ode_storage.Txn.t -> Ode_objstore.Oid.t -> (Trigger_state.id * Trigger_state.t) list
(** Activation order. *)

val post :
  ?payload:Ode_objstore.Value.t list ->
  t ->
  Ode_storage.Txn.t ->
  obj:Ode_objstore.Oid.t ->
  event:int ->
  unit
(** PostEvent. [event] is an interned event id; [payload] carries the §8
    "attributes of events" extension — typically the member-function
    invocation's arguments — and reaches masks and actions through
    {!Trigger_def.ctx.ev_args}. *)

val note_access : t -> Ode_storage.Txn.t -> obj:Ode_objstore.Oid.t -> cls:string -> unit
(** Record the object on the transaction-event object list if its class
    declared interest in transaction events (§5.5, first access wins). *)

val before_commit : t -> Ode_storage.Txn.t -> unit
(** Drain end-coupled actions, post [before tcomplete] to listed objects,
    drain again. *)

val after_commit : t -> Ode_storage.Txn.t -> unit
(** Run dependent and independent actions in system transactions and drain
    the phoenix queue. *)

val before_abort : t -> Ode_storage.Txn.t -> unit
(** Post [before tabort] to listed objects (explicit aborts only). *)

val after_abort : t -> Ode_storage.Txn.t -> unit
(** Discard end/dependent work; run independent actions in system
    transactions (§5.5: the abort routine checks the !dependent list after
    roll-back). *)

val commit_with_triggers : t -> Ode_storage.Txn.t -> unit
val abort_with_triggers : t -> Ode_storage.Txn.t -> unit

val on_object_deleted : t -> Ode_storage.Txn.t -> Ode_objstore.Oid.t -> unit
(** Called when a persistent object is deleted: deactivates every trigger
    anchored primarily at it, and unlinks it as a secondary anchor of
    inter-object triggers (which stay active on their primary object but
    no longer receive this object's events — it can produce none
    anyway). Transactional: rolls back with the deleting transaction. *)

val forget : t -> Ode_storage.Txn.t -> unit
(** Drop all transaction-local state (queued detached work, local rules,
    the index journal is already reversed by the abort participant)
    without running anything. For crash-like aborts where even the
    !dependent work should be discarded. *)

val drain_phoenix : t -> unit
(** Execute and remove every committed phoenix entry, each in its own
    system transaction; the scan that finds them takes no locks. Safe to
    call any time outside an active user transaction; called after commit. *)

val phoenix_backlog : t -> int
(** Committed phoenix entries still queued (a lock-free count). *)

(** {1 Lock-footprint validation (soundness checker)}

    Dynamic counterpart of {!Ode_analysis.Concur}'s static lock-footprint
    inference. With a validator installed, every trigger firing opens a
    frame; lock-relevant store accesses performed while the frame is open
    — by the action itself, by machine advancement its posts cause, and
    by anything deeper in the cascade — are recorded at class granularity
    and handed to the validator when the frame closes. A nested firing's
    accesses are also recorded into the enclosing frames, so each frame
    sees its trigger's {e transitive} footprint. *)

type access =
  | Trig_read  (** S lock on a TriggerState record of the named class *)
  | Trig_write  (** X lock (update/insert/delete) on same *)
  | Obj_read  (** S lock on an object record whose dynamic class is named *)
  | Obj_write  (** X lock on same *)

type validator = cls:string -> trigger:string -> acc:(access * string) list -> unit

val set_validator : t -> validator option -> unit
(** Install (or remove, clearing any open frames) the validation
    callback. [cls]/[trigger] identify the firing; [acc] is the deduped
    observed access set. *)

val in_firing : t -> bool
(** A trigger action is on the call stack (fire depth > 0). Used by
    {!Ode_parallel.Sharded} to count trigger-initiated cross-shard
    forwards against the static affinity prediction. *)

val in_validation_frame : t -> bool
(** At least one validation frame is open — callers outside this module
    (e.g. {!Ode_core.Session}'s object-store operations) use this to skip
    note bookkeeping entirely in normal operation. *)

val note_object_access : t -> cls:string -> write:bool -> unit
(** Record an object-store access into the open frames (no-op when none
    are). The session layer calls this from its object read/write paths,
    where the dynamic class is known. Read accesses are suppressed while
    lock-free MVCC reads are active — no S lock was taken, so none may
    appear in the observed set. *)

(** {1 Certified snapshot-safe (lock-free) firing} *)

val set_snapshot_safe : t -> (string * string) list -> unit
(** Replace the set of [(class, trigger)] pairs whose advances and firing
    cascades run on the lock-free MVCC read path. The session layer
    derives the list from {!Ode_analysis.Concur.row_snapshot_safe}
    certification after every [define_class]. *)

val snapshot_safe : t -> cls:string -> trigger:string -> bool

val lock_free_reads_active : t -> bool
(** A certified snapshot-safe advance or firing is on the call stack:
    object-store reads made now should use the lock-free read-committed
    variants (the session layer checks this). *)

val metrics : t -> Ode_util.Metrics.t
(** Counters: [posts]; [index_probes] and [index_skips] (posts proven
    irrelevant per activation by the live-event bitset: no store read, no
    decode, no lock); [fsm_moves]; [mask_evals]; [state_writes] (logical
    trigger-state writes); [cache_hits], [cache_misses] and
    [cache_flushes] (dirty cached states written at commit-prepare: at
    most one per transaction and activation, however often it moved);
    [fires_immediate], [fires_end], [fires_dependent],
    [fires_independent], [fires_phoenix]; [activations],
    [deactivations], [local_activations]; [snapshot_reads] (trigger-state
    reads served lock-free from the committed versions by certified
    snapshot-safe advances and firings); [s_locks_avoided] (of those,
    reads that would have taken a fresh S lock on the locking path);
    [write_conflicts] (first-updater-wins validation failures,
    {!Ode_storage.Store.Write_conflict}). *)
