(** The integrated active database: O++ semantics as a runtime API.

    A {!t} bundles a transaction manager, an object store and database, a
    trigger-state store and the trigger runtime — the pieces §5 integrates.
    Classes are defined at run time ({!define_class}); defining a class
    plays the role of the O++ compiler: it interns the declared events
    (§5.2), compiles each trigger's event expression to an FSM stored in
    the class's descriptor (§5.1.3 — recompiled on every run, exactly as
    the paper chose to), and installs the wrapper-function behaviour that
    posts member-function events around invocations through persistent
    handles (§5.3).

    Design goals 3–4 are visible in the API: {!invoke} (persistent handle)
    posts events; {!Volatile} objects never touch the trigger machinery at
    all. *)

module Txn := Ode_storage.Txn
module Oid := Ode_objstore.Oid
module Value := Ode_objstore.Value

type t

exception Aborted
(** Raised by {!with_txn} when the body (typically a trigger action)
    executed [tabort]. *)

exception Ode_error of string

type store_kind = [ `Disk | `Mem ]

type settings = {
  kind : store_kind;
  storage : Ode_storage.Settings.t;
      (** both stores' pages, pool, latencies, durability and capacity knobs *)
  engine : Ode_trigger.Runtime.config;  (** the trigger runtime's posting-engine layers *)
  shard : int * int;  (** (index, count) oid striding; (0, 1) when unsharded *)
}
(** Everything a session is configured with. It is given once, at
    {!create}; {!crash} keeps it in the image, and {!recover} (hence
    {!Ode_parallel.Sharded.recover} and {!Ode_replication.Replication.promote})
    rebuilds the same configuration from it. *)

(* ------------------------------------------------------------------ *)

type obj_handle = Persistent of Oid.t | Volatile of vobj

and vobj
(** A volatile object: class-shaped fields in program memory, outside any
    database, transaction or trigger scope (§2). *)

type method_ctx = {
  env : t;
  txn : Txn.t option;  (** [None] during volatile invocation *)
  self : obj_handle;
  get : string -> Value.t;
  set : string -> Value.t -> unit;
  invoke_self : string -> Value.t list -> Value.t;
      (** virtual re-dispatch on [self] (posts events when persistent) *)
  post_self : string -> unit;
      (** post a user-defined event on [self]; no-op when volatile *)
}

type method_impl = method_ctx -> Value.t list -> Value.t

type mask_impl = t -> Ode_trigger.Trigger_def.ctx -> bool
type action_impl = t -> Ode_trigger.Trigger_def.ctx -> unit

type trigger_spec = {
  tr_name : string;
  tr_params : string list;
  tr_event : string;  (** event expression in the {!Ode_event.Parser} syntax *)
  tr_perpetual : bool;
  tr_coupling : Ode_trigger.Coupling.t;
  tr_action : action_impl;
  tr_posts : string list;
      (** events the action may post, as event-declaration strings
          ("after RaiseLimit", "BigBuy", optionally "Cls."-qualified) —
          the [posts] clause. Purely declarative: resolved against the
          declared alphabet at class definition and fed to the static
          analyzer's rule triggering graph; the runtime never reads it. *)
  tr_reads : string list;
      (** classes whose object stores the action may read — the [reads]
          clause, input to the concurrency analyzer's lock-footprint
          inference. Each name must be this class or an already-defined
          one. When both [tr_reads] and [tr_writes] are empty (and not
          [tr_pure]) the action defaults to reads+writes of its own
          class. *)
  tr_writes : string list;  (** classes the action may write — [writes] *)
  tr_pure : bool;
      (** the action touches no object store at all (e.g. [tabort]);
          excludes [tr_reads]/[tr_writes] *)
}

(* ------------------------------------------------------------------ *)

val create :
  ?store:store_kind ->
  ?page_size:int ->
  ?pool_capacity:int ->
  ?io_spin:int ->
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Ode_storage.Commit_pipeline.mode ->
  ?faults:Ode_storage.Faults.t ->
  ?shard:int * int ->
  ?engine:Ode_trigger.Runtime.config ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_checkpoint_bytes:int ->
  unit ->
  t
(** Fresh empty database environment. Each label sets one field of the
    environment's {!settings}; an omitted one takes its
    {!Ode_storage.Settings.default}. [store] defaults to [`Mem]
    (MM-Ode); [`Disk] uses the paged EOS-like store, whose
    [page_size], [pool_capacity] and [io_spin] the [`Mem] store ignores.
    The rest apply to both stores: [durability] selects the commit
    pipeline mode ([Immediate] forces the log on every commit; [Group]
    and [Async] batch log forces and defer durability acks, see {!sync});
    [flush_spin]/[flush_sleep] simulate log-force latency — MM-Ode still
    forces a log; [wal_segment_bytes], [ckpt_full_every] and
    [auto_checkpoint_bytes] are the capacity knobs (see {!checkpoint}).

    [engine] selects the trigger runtime's posting-engine layers; default
    {!Ode_trigger.Runtime.default_config}. Use
    {!Ode_trigger.Runtime.reference_config} for the unoptimised
    differential-reference engine.

    [shard] = [(index, count)] makes the object store mint only oids
    ≡ index (mod count) — the {!Ode_parallel} partitioning rule; default
    [(0, 1)], the unsharded behaviour.

    [faults] is a fault-injection plane ({!Ode_storage.Faults}) shared by
    {e both} disk stores, giving the whole environment one global
    I/O-point numbering; ignored for [`Mem] (which performs no simulated
    I/O). Default: a fresh inert plane. It is not a setting: a crash
    image does not keep it. *)

val settings : t -> settings
(** The settings the environment was created (or recovered) with. *)

val faults : t -> Ode_storage.Faults.t
(** The environment's fault plane (inert unless a plan was armed). *)

val sync : t -> unit
(** Force both stores' commit pipelines: any queued group-commit batches
    are materialised and flushed, and every deferred durability ack is
    resolved. A no-op under [Immediate] durability (nothing is ever
    queued). Call before {!crash} when a test needs deferred commits to
    be durable, or at the end of a batch workload. Unlike a commit-time
    flush, which swallows an injected fault as delayed durability, [sync]
    raises it: both pipelines are attempted first, then the first
    {!Ode_storage.Faults.Injected_fault} is re-raised. *)

val define_class :
  t ->
  name:string ->
  ?parents:string list ->
  ?fields:(string * Value.t) list ->
  ?methods:(string * method_impl) list ->
  ?events:Ode_event.Intern.basic list ->
  ?masks:(string * mask_impl) list ->
  ?triggers:trigger_spec list ->
  ?constraints:(string * mask_impl) list ->
  ?allow_lint_errors:bool ->
  unit ->
  unit
(** Register a class. [fields] are own fields with default values (added
    to inherited ones); [events] is the class's event declaration — only
    declared events are ever posted (§4); [masks] names the predicates the
    trigger expressions may reference with [&].

    [constraints] implements §8's "intra-object constraints as a special
    case of triggers": each [(name, invariant)] pair becomes a perpetual
    immediate trigger on [any & not-invariant] whose action is [tabort],
    auto-activated on every new instance by {!pnew} — a transaction that
    leaves the invariant false after any declared event is vetoed. The
    invariant is only checked at declared events (a class with no events
    has unchecked constraints).

    Unless [allow_lint_errors] is true (default false), the new class's
    compiled triggers are vetted by the define-time subset of the static
    analyzer ({!Ode_analysis}): a trigger whose event expression can never
    fire (empty language), or a [posts]-declared immediate-coupling cycle
    through the new class, rejects the definition with {!Ode_error}.

    Raises {!Ode_error} on unknown parents, duplicate definitions,
    duplicate mask/constraint names, unresolvable [posts] declarations, or
    trigger expressions that fail to parse. *)

val lint : ?config:Ode_analysis.Analyze.config -> t -> Ode_analysis.Diagnostic.t list
(** Run the full static analysis (all six passes — emptiness, vacuity,
    subsumption, termination, blow-up budget, concurrency) over every
    registered trigger, sorted most-severe first. [config] defaults to
    {!Ode_analysis.Analyze.default_config}. *)

val concur_report : t -> Ode_analysis.Concur.report
(** The whole-schema concurrency report over every registered trigger:
    per-trigger lock footprints (direct and cascade-transitive),
    lock-order cycles, commutativity classes, snapshot-safety and
    shard-affinity judgements — what [odectl footprint] renders and
    {!enable_validation} checks firings against. *)

(* -------------------- footprint validation -------------------- *)

val enable_validation : t -> unit
(** Switch on the dynamic lock-footprint soundness checker: every trigger
    firing from now on records the lock set it actually acquires (trigger
    and object records, S and X) and checks it against the static cascade
    footprint from {!concur_report}. Accesses outside the footprint are
    collected as {!validation_violations} — an empty list after a workload
    is evidence the static analysis over-approximates the runtime, as it
    must. Frames nest: a cascaded firing's locks are charged to every
    open frame, matching the transitive footprint.

    The table refreshes automatically when further classes are defined.
    Raises {!Ode_error} under {!Ode_trigger.Runtime.reference_config}: the
    reference engine reads every candidate activation on every post (no
    relevance filtering), acquiring locks the static footprint deliberately
    excludes — validation is defined over the default filtered engine. *)

val disable_validation : t -> unit
(** Stop recording; clears collected violations. *)

val validation_violations : t -> string list
(** Violations collected since {!enable_validation}, oldest first; each is
    ["Cls.Trigger: observed locks outside the static footprint: ..."].
    Firings of {!Ode_analysis.Concur}-certified snapshot-safe triggers
    are additionally checked for an {e empty} shared-lock set — their
    cascades run on the lock-free MVCC read path, so any observed S
    access is reported as a violation. *)

val validation_frames : t -> int
(** Firings validated since {!enable_validation} — assert it is positive
    to know the checker actually saw work. *)

(* -------------------- transactions -------------------- *)

val begin_txn : t -> Txn.t
val commit : t -> Txn.t -> unit
(** Full commit processing: end-coupled actions, [before tcomplete]
    posting, the actual commit, then detached system transactions and the
    phoenix drain (§5.5). *)

val abort : t -> Txn.t -> unit
(** Explicit abort: posts [before tabort], rolls back (including trigger
    FSM states), then runs surviving !dependent actions. *)

val with_txn : t -> (Txn.t -> 'a) -> 'a
(** Run the body in a fresh transaction and {!commit}. If the body (or a
    trigger it fires) raises [Tabort], the transaction is aborted via
    {!abort} and {!Aborted} is raised; other exceptions abort (without
    [before tabort] posting, as in a crash-like abort) and re-raise. *)

val attempt : t -> (Txn.t -> 'a) -> 'a option
(** Like {!with_txn} but returns [None] instead of raising {!Aborted} —
    convenient when a trigger like DenyCredit vetoes the transaction. *)

val begin_snapshot : t -> Txn.t
(** Begin a read-only {e snapshot} transaction: reads resolve against an
    immutable snapshot of the committed state at a timestamp pinned on
    the first read, take no shared locks, and can never block, deadlock
    or abort. Any write through it raises [Store_error]. Finish with
    {!Txn.commit} (or use {!with_snapshot}); an open snapshot pins the
    versions it can see against garbage collection until it ends. *)

val with_snapshot : t -> (Txn.t -> 'a) -> 'a
(** Run the body in a fresh snapshot transaction and end it. Exceptions
    propagate after the snapshot is released. *)

val tabort : unit -> 'a
(** The O++ [tabort] statement: abort the enclosing transaction. Allowed
    anywhere, notably inside trigger actions (§6). *)

(* -------------------- persistent objects -------------------- *)

val pnew : t -> Txn.t -> cls:string -> ?init:(string * Value.t) list -> unit -> Oid.t
val pdelete : t -> Txn.t -> Oid.t -> unit
val exists : t -> Txn.t -> Oid.t -> bool
val class_of : t -> Txn.t -> Oid.t -> string
val get_field : t -> Txn.t -> Oid.t -> string -> Value.t
val set_field : t -> Txn.t -> Oid.t -> string -> Value.t -> unit

val invoke : t -> Txn.t -> Oid.t -> string -> Value.t list -> Value.t
(** Member-function invocation through a persistent pointer: resolves the
    method through the inheritance order, posts declared [before]/[after]
    events around the call (§5.3), and notes the object on the
    transaction-event list. *)

val post_event : ?args:Value.t list -> t -> Txn.t -> Oid.t -> string -> unit
(** Post a user-defined event (must be declared). [args] is an optional
    event payload, visible to masks and actions as
    {!Ode_trigger.Trigger_def.ctx.ev_args} (§8 "attributes of
    events"). *)

val post_event_id : ?args:Value.t list -> t -> Txn.t -> Oid.t -> event:int -> unit
(** Post by pre-interned global event id — how {!Ode_parallel} applies a
    sealed cross-shard envelope. The id must come from an environment
    whose intern snapshot equals this one's (the fleet checks this). *)

val post_event_fast : ?args:Value.t list -> t -> Txn.t -> Oid.t -> event:int -> unit
(** Like {!post_event_id}, but first consults the object store's
    membership probe ([Store.maybe_present]: bloom filter then
    directory, no lock and no page read) and silently drops the posting
    when the target has no live record — the same drop semantics
    {!Ode_parallel} applies to envelopes for deleted targets. At
    million-object scale this answers postings to absent or archived
    oids without touching the buffer pool (experiment P5). *)

val user_event_id : t -> Txn.t -> Oid.t -> string -> int
(** The interned global id of a declared user event on the object's class
    — what a forwarding task seals into an envelope. Raises {!Ode_error}
    if the class does not declare it. *)

val cluster : t -> cls:string -> Oid.t list
(** Oids currently in the class's own cluster. *)

val iter_cluster : t -> Txn.t -> cls:string -> (Oid.t -> unit) -> unit

(* -------------------- field indexes -------------------- *)

val create_index : t -> Txn.t -> name:string -> cls:string -> field:string -> unit
(** Ordered secondary index (B+-tree) over one field of the class's
    cluster; maintained transactionally from then on. Volatile: re-create
    after {!recover}. *)

val index_lookup : t -> name:string -> Value.t -> Oid.t list
val index_range :
  t -> name:string -> ?lo:Value.t -> ?hi:Value.t -> unit -> (Value.t * Oid.t list) list

(* -------------------- triggers -------------------- *)

val activate :
  ?anchors:Oid.t list ->
  t ->
  Txn.t ->
  Oid.t ->
  trigger:string ->
  args:Value.t list ->
  Ode_trigger.Trigger_state.id
(** [credcard->AutoRaiseLimit(1000.0)]: finds the trigger in the object's
    class or a base class and creates a persistent activation.

    [anchors] (§8 inter-object extension) lists additional objects whose
    events are routed to this activation; pair it with qualified event
    references in the trigger's expression ([Gold.Stable]). *)

val activate_local : t -> Txn.t -> Oid.t -> trigger:string -> args:Value.t list -> unit
(** §8 "local rules": a transaction-scoped activation — in-memory only, no
    locks, discarded when the transaction finishes (either way). *)

val broadcast_event : t -> Txn.t -> string -> unit
(** Post the named user event to every object whose class declares it —
    the substrate for §8's timed triggers: an application clock calls
    [broadcast_event env txn "tick"] and triggers mention [tick] in their
    event expressions. *)

val deactivate : t -> Txn.t -> Ode_trigger.Trigger_state.id -> unit

val active_triggers :
  t -> Txn.t -> Oid.t -> (Ode_trigger.Trigger_state.id * Ode_trigger.Trigger_state.t) list

val trigger_fsm : t -> cls:string -> trigger:string -> Ode_event.Fsm.t
(** The compiled (simplified, pruned) machine, e.g. Figure 1 for
    AutoRaiseLimit. *)

(* -------------------- volatile objects -------------------- *)

module Volatile : sig
  val vnew : t -> cls:string -> ?init:(string * Value.t) list -> unit -> vobj
  val get : vobj -> string -> Value.t
  val set : vobj -> string -> Value.t -> unit
  val invoke : t -> vobj -> string -> Value.t list -> Value.t
  (** Same dispatch as persistent invocation but with zero trigger
      machinery — no posting, no transaction, no locks (design goals
      3–4). *)

  val class_of : vobj -> string

  val copy_to_persistent : t -> Txn.t -> vobj -> Oid.t
  (** [*ppers = *pers]: materialise the volatile object's state as a new
      persistent object. *)

  val copy_from_persistent : t -> Txn.t -> Oid.t -> vobj

  val attach :
    t ->
    vobj ->
    event:string ->
    ?masks:(string * (vobj -> bool)) list ->
    action:(vobj -> unit) ->
    ?perpetual:bool ->
    unit ->
    unit
  (** §8 "monitored classes": attach a composite-event trigger to a
      volatile object. The event expression compiles against the class's
      declared alphabet exactly as persistent triggers do, but the
      machine's state lives in program memory: no persistence, no
      transactions, no locks — and volatile objects without monitors
      still pay nothing (design goal 3 extended to the volatile world).
      [masks] resolve the expression's [&] names; [perpetual] defaults to
      true. *)
end

(* -------------------- durability -------------------- *)

type crash_image

val checkpoint : ?deadline:int -> t -> unit
(** Checkpoint both stores. If transactions hold uncommitted writes the
    checkpoint is not a failure any more: it is deferred and taken at
    the first transaction boundary (commit or abort) where both stores
    are quiescent. [deadline] bounds the wait, counted in transaction
    boundaries; when it is exhausted with writers still in flight,
    {!Ode_error} is raised ([deadline <= 0] with writers in flight
    fails immediately). Without [deadline] the request waits
    indefinitely. The same deferral path serves the automatic
    checkpoint policy armed by [auto_checkpoint_bytes] on {!create}. *)

val checkpoint_pending : t -> bool
(** A deferred checkpoint (explicit or automatic) is waiting for
    quiescence. *)

val quiescent : t -> bool
(** No transaction holds uncommitted writes in either store. *)

val crash : t -> crash_image
(** Simulate a crash: volatile state (buffer pool, caches, indexes) is
    lost; only the durable WAL prefixes survive, captured in the image. The
    environment is unusable afterwards. *)

val recover :
  ?durability:Ode_storage.Commit_pipeline.mode ->
  ?faults:Ode_storage.Faults.t ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_checkpoint_bytes:int ->
  crash_image ->
  t
(** Rebuild an environment from a crash image: recover both stores, reopen
    the database (rescanning clusters), rebuild the trigger index, and
    garbage-collect trigger activations whose anchoring object did not
    survive (a crash between the two stores' commit flushes can orphan
    either side). Classes must be re-defined by the application before use
    — FSMs are recompiled each run, per §5.1.3.

    The recovered environment runs with the image's {!settings}: store
    kind, pages, pool, latencies, durability, capacity knobs, engine and
    shard striding. [durability], [wal_segment_bytes], [ckpt_full_every]
    and [auto_checkpoint_bytes] override the image's value when given.
    [faults] arms a fault plane on the recovered environment (default:
    inert). *)

type recovery_report = { rr_obj_tail : int; rr_trig_tail : int }
(** What {!recover} dropped, per store: the count of WAL records after
    the last complete commit boundary ({!Ode_storage.Recovery.truncated_tail})
    — in-flight work redo skipped rather than silently swallowed. *)

val report_of_image : crash_image -> recovery_report
(** The truncated tails an image would recover with, without recovering.
    How {!Ode_replication} asserts a promoted replica's exact truncation
    point. *)

val image_settings : crash_image -> settings
(** The settings of the crashed environment, which {!recover} restores. *)

val image_wals : crash_image -> bytes * bytes
(** The [(objects, triggers)] durable WAL prefixes captured by the crash —
    what the fault-injection harness feeds to record-level recovery
    oracles. *)

val image_of_wals : settings -> bytes * bytes -> crash_image
(** Assemble a crash image from settings and raw [(objects, triggers)]
    durable WAL prefixes — how a replica's shipped log becomes a
    recoverable image at promotion ({!Ode_replication}), with the old
    primary's settings. Inverse of {!image_settings} and {!image_wals}:
    [image_of_wals (image_settings img) (image_wals img)] recovers like
    [img]. *)

val drain_phoenix : t -> unit
(** Re-run any phoenix actions that survived a crash; call after classes
    are re-defined. *)

(* -------------------- introspection -------------------- *)

val stores : t -> Ode_storage.Store.t * Ode_storage.Store.t
(** The [(objects, triggers)] store handles — each carries its WAL and
    commit pipeline. How {!Ode_replication} taps the durable log for
    shipping and installs the quorum shipper; application code should not
    bypass the session API through these. *)

val runtime : t -> Ode_trigger.Runtime.t
val database : t -> Ode_objstore.Database.t
val mgr : t -> Txn.mgr
val intern : t -> Ode_event.Intern.t
val metrics : t -> Ode_util.Metrics.t
(** The session's registry: each part's registry attached under a prefix
    — [objects.*] and [triggers.*] (the two stores), [locks.*], [txn.*],
    [rt.*] (the trigger runtime) and [intern.*]. *)

val counters : t -> (string * int) list
(** Every value of {!metrics}, sorted by key. Counters count since the
    session was built or last {!reset_counters}; gauges and peaks read
    current state. *)

val reset_counters : t -> unit
(** Zero every counter of {!metrics}. Gauges and peaks are left alone:
    [objects.wal_bytes], [objects.mvcc.chains] and
    [objects.max_batch_size] read the same before and after. *)
