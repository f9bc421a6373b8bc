(** Domain-parallel sharded execution engine.

    Objects are partitioned by oid across K shards — shard [i] owns every
    oid ≡ i (mod K), enforced at allocation by the object store's rid
    striding — and each shard is a complete independent {!Ode.Session}
    (stores, WALs, lock manager, trigger runtime) on its own OCaml 5
    domain. A router on the caller's domain dispatches transactions to
    their home shard over bounded SPSC mailboxes; cross-shard posts
    travel as sealed event envelopes, released only on commit.

    [Deterministic] mode runs logical-tick barrier rounds (envelopes of
    round r apply at the start of round r+1 in a K-independent total
    order), making every observable a pure function of the input
    schedule; K=1 is bit-identical to a single unsharded [Session].
    [Free] mode drops the barrier for maximum throughput.

    Thread-safety contract: the router API ({!submit}, {!barrier},
    {!sync}, {!stats}, …) is single-caller; {!with_shard} and the
    sessions returned by {!session} may only be touched at a quiescent
    point (right after {!sync}, {!barrier} or {!shutdown}). *)

module Session := Ode.Session
module Oid := Ode_objstore.Oid
module Value := Ode_objstore.Value
module Txn := Ode_storage.Txn

type mode = Deterministic | Free

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

type ctx = {
  shard : int;  (** executing shard's index *)
  session : Session.t;  (** the shard's own session *)
  forward : ?payload:Value.t list -> obj:Oid.t -> event:int -> unit -> unit;
      (** Seal a cross-shard post ({!Session.user_event_id} supplies the
          id) into an envelope: buffered until the enclosing transaction
          commits, dropped on abort, applied at the destination in
          deterministic round order ([Deterministic]) or on delivery
          ([Free]). Deferred even when the destination is the local
          shard, so semantics are independent of K. *)
}

type task = ctx -> Txn.t -> unit

type t

val create :
  ?store:Session.store_kind ->
  ?page_size:int ->
  ?pool_capacity:int ->
  ?io_spin:int ->
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Ode_storage.Commit_pipeline.mode ->
  ?engine:Ode_trigger.Runtime.config ->
  ?mailbox_capacity:int ->
  ?shard_faults:(int -> Ode_storage.Faults.t) ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_checkpoint_bytes:int ->
  shards:int ->
  mode:mode ->
  schema:(shard:int -> Session.t -> unit) ->
  unit ->
  t
(** Build a K-shard fleet on exactly K domains, one per shard for its
    whole life. Shards are built concurrently: [schema] runs once per
    shard on the worker domain that will then serve that shard, and may
    capture only per-shard or synchronised mutable state. It must define
    the same classes in the same order on every shard; a divergent
    event-id assignment raises [Invalid_argument] once every shard is
    built. If callbacks raise, the lowest shard's exception is re-raised
    once every worker is joined. [shard_faults] supplies each shard's
    private fault-injection plane (default: inert planes) — the
    fleet-crash harness arms exactly one of them. Session parameters, including the
    capacity knobs ([wal_segment_bytes], [ckpt_full_every],
    [auto_checkpoint_bytes], see {!Session.create}), are forwarded to
    every shard's {!Session.create}. *)

val shard_count : t -> int

val mode : t -> mode

val shard_of : t -> int -> int
(** Home shard of an integer key: [key mod K]. Oids minted by shard [i]
    satisfy [shard_of t (oid :> int) = i] by construction. *)

val submit : t -> key:int -> task -> unit
(** Route a transaction to [shard_of key]. [Deterministic]: buffered for
    the next {!barrier} round. [Free]: pushed immediately (blocks while
    the home mailbox ring is full — back-pressure). *)

val post_foreign : t -> shard:int -> (Session.t -> unit) -> unit
(** Thread-safe foreign entry lane ([Free] mode only; [Deterministic]
    raises [Invalid_argument]): inject a closure into the shard's mailbox
    through the unbounded MPSC forward lane, callable from {e any} domain
    — unlike the single-caller router API. The closure runs on the
    shard's own domain against its session; it owns its transaction
    boundaries and must not let exceptions escape (results travel back
    through a completion callback captured in the closure). This is how
    {!Ode_net}'s server routes decoded requests to shard mailboxes.
    Callers must stop injecting before {!shutdown}/{!crash}. *)

val post_foreign_batch : t -> shard:int -> (Session.t -> unit) list -> unit
(** {!post_foreign} for a whole batch (run in list order): one mailbox
    lock and one shard wakeup for the entire list. The network reactor
    accumulates a wakeup's dispatches per shard and flushes them here. *)

val barrier : t -> unit
(** [Deterministic] only (no-op in [Free]): run one round — deliver the
    previous round's envelopes in (seq, emit) order, then the buffered
    submissions in submission order, then barrier on all K shards. *)

val sync : t -> unit
(** Quiesce the fleet: run rounds until no work or envelopes remain
    ([Deterministic]) or the outstanding-message count drains ([Free]),
    then force every live shard's commit pipeline. After [sync] the
    router may read shard state ({!with_shard}, {!counters}, …). *)

val shutdown : t -> unit
(** {!sync}, then stop and join every worker domain. The sessions stay
    readable; further routing raises [Invalid_argument]. *)

val with_shard : t -> key:int -> (Session.t -> 'a) -> 'a
(** Run [f] on the home shard's session from the router's domain. Only
    sound at a quiescent point. *)

val snapshot_read : t -> key:int -> (Session.t -> Txn.t -> 'a) -> 'a
(** Run [f] inside a lock-free snapshot transaction
    ({!Session.with_snapshot}) on the key's home shard, pinned at that
    shard's own commit clock — per-shard clocks come for free because
    each shard is a complete independent session. Same quiescence
    contract as {!with_shard}. *)

val session : t -> int -> Session.t

val crashed_shards : t -> (int * string) list
(** Shards that hit an injected crash, with the description. Read at a
    quiescent point (after {!barrier}/{!sync}) or after {!crash}. *)

val failures : t -> (int * string) list
(** Last unexpected (non-abort, non-crash) task exception per shard —
    should be empty in a healthy run. *)

(* ---------------- crash / recovery ---------------- *)

type fleet_image

val crash : t -> fleet_image
(** Stop the workers (without syncing — a crash is a crash) and capture
    every shard's durable WAL prefixes. In-flight envelopes are volatile
    and lost: forwards are at-most-once across crashes. *)

val image_shards : fleet_image -> int

val image_wals : fleet_image -> int -> bytes * bytes
(** Shard [i]'s durable [(objects, triggers)] WAL prefixes — the K=1
    bit-identity oracle and the fleet-crash harness's commit clock. *)

val recover :
  ?durability:Ode_storage.Commit_pipeline.mode ->
  ?mailbox_capacity:int ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_checkpoint_bytes:int ->
  mode:mode ->
  schema:(shard:int -> Session.t -> unit) ->
  fleet_image ->
  t
(** Rebuild all K shards from a fleet image: each shard's stores are
    recovered from its WAL prefixes with the settings it crashed with,
    including its (i, K) striding ({!Session.recover}); the labels
    override the image's value on every shard. Each shard recovers and
    runs [schema] on its own worker domain, which then serves it, under
    {!create}'s contract. *)

(* ---------------- statistics ---------------- *)

val counters : t -> (string * int) list
(** {!Session.counters} merged across shards (same keys) by
    {!Ode_util.Metrics.merge}: counters and gauges summed, peaks such as
    [objects.max_batch_size] maxed, [objects.avg_batch_size] recomputed.
    Each shard's own counters are registered in its session's registry
    under [fleet.]: [tasks] routed, [committed], [aborted], [failed],
    [forwards_out] (envelopes sealed and sent), [forwards_in] (applied),
    [foreign] ({!post_foreign} requests executed) and [trigger_forwards]
    (forwards emitted while a trigger action was on the stack — the
    observable counterpart of the concurrency analyzer's cross-shard
    affinity prediction: zero predicted [cross-shard-post] edges must
    mean zero of these), and the peaks [rounds] (barrier rounds) and
    [mailbox_hwm]; {!Session.reset_counters} zeroes the counters and
    keeps the peaks. *)

type shard_stats = { ss_tasks : int; ss_foreign : int }

val shard_stats : t -> shard_stats list
(** A view of each shard's [fleet.] entries. *)

type fleet_stats = {
  fs_tasks : int;
  fs_committed : int;
  fs_aborted : int;
  fs_failed : int;
  fs_forwards : int;
  fs_trigger_forwards : int;
  fs_rounds : int;
  fs_mailbox_hwm : int;
}

val stats : t -> fleet_stats
(** A view of the [fleet.] entries merged across shards: counters
    summed, [fs_rounds] and [fs_mailbox_hwm] maxed. *)

val latencies : t -> float list
(** Per-task wall-clock latency in seconds (queueing included), all
    shards merged, oldest first. *)
