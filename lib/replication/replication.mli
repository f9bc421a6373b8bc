(** WAL-shipping replication with quorum commit and failover.

    A primary {!Ode.Session} ships every new durable byte range of its
    two WALs (objects, triggers) to N replicas at every commit-pipeline
    flush, through {!Commit_pipeline.attach_shipper}. Each replica keeps
    a persisted copy of both streams ({!Replay}) and replays them
    continuously into warm standby state — per-transaction op buffering,
    applied at commit markers, undone through before-images when a later
    [Abort] cancels a [Commit] (last-marker-wins), reset at checkpoints.

    When the primary runs in {!Commit_pipeline.Quorum}[ {n; _}] mode the
    manager feeds each store's n-th-highest replica offset back into the
    pipeline ({!Commit_pipeline.note_quorum_offset}); durability acks
    release in commit order once the covering prefix is persisted on [n]
    replicas, never earlier.

    Failover ({!promote}) rebuilds a full session, with the old
    primary's settings, from a replica's log copies: recovery truncates
    to the last complete commit boundary (shipping is flush-aligned, so
    the truncated tail is 0 in this transport), the schema is re-run per
    the paper's §5.1.3 recompile-on-recovery rule, and the session
    resumes as primary.
    Trigger firings are at-most-once across failover: a committed
    firing's durable effect survives promotion exactly once, and a
    rolled-back firing never reappears. *)

module Wal := Ode_storage.Wal
module Rid := Ode_storage.Rid
module Commit_pipeline := Ode_storage.Commit_pipeline
module Session := Ode.Session

type stream = [ `Objects | `Triggers ]

val stream_to_string : stream -> string

type chunk = { ck_stream : stream; ck_base : int; ck_bytes : bytes }
(** One shipped log range: [ck_bytes] is the primary WAL's byte range
    starting at absolute offset [ck_base]. Chunks are flush-aligned
    (whole records) in this transport, but {!Replay.feed} tolerates
    arbitrary re-chunking and overlap, so a socket transport can split
    them freely. *)

(** A replica's standby copy of one WAL stream. *)
module Replay : sig
  type t

  val create : unit -> t

  val feed : t -> base:int -> bytes -> unit
  (** Persist and replay a shipped range. Idempotent: a chunk that lies
      entirely within the already-persisted prefix is a counted no-op
      ({!redundant}); an overlapping chunk contributes only its fresh
      suffix. Raises [Invalid_argument] on a gap ([base] beyond the
      persisted length) — the transport must retransmit in order. *)

  val size : t -> int
  (** Persisted bytes — the replica's durable offset for this stream. *)

  val redundant : t -> int
  (** Chunks skipped as already-persisted duplicates. *)

  val records : t -> Wal.record list
  (** All decoded records, oldest first. *)

  val state : t -> (Rid.t * bytes) list
  (** The warm standby record map, sorted by rid — must always equal
      [Recovery.committed_state] of the decoded log. *)
end

type t
(** A replication manager: one primary, N replicas, shipping hooks
    installed on both store pipelines. *)

type replica

val attach : ?replicas:int -> ?failover_count:int -> Session.t -> t
(** Install shipping on [primary]'s two commit pipelines and create
    [replicas] (default 2) empty replicas. Ships the already-durable WAL
    prefix immediately, so a freshly recovered primary's checkpoint
    reaches the fleet before the first commit. Every send to one replica
    of one stream is a [Ship] point of the primary's own fault plane
    ({!Session.faults}): a plan can crash the primary there, exactly as
    at a WAL flush. If the primary's
    durability mode is [Quorum {n; _}], quorum feedback is armed with
    that [n]; other modes ship without gating acks.
    [failover_count] seeds the counter when re-attaching after a
    promotion. *)

val replica_replay : t -> int -> stream -> Replay.t
val replica_offsets : t -> int -> int * int
(** Replica [i]'s persisted [(objects, triggers)] byte offsets. *)

val pause : t -> int -> unit
(** Pause replica [i]'s link: subsequent chunks queue (a lagging
    replica). Quorum progress excludes its future offsets. *)

val resume : t -> int -> unit
(** Deliver replica [i]'s backlog in order and republish quorum
    progress — parked acks whose prefix became [n]-durable release now,
    still in commit order. *)

val furthest_ahead : t -> int
(** The replica with the most persisted bytes (objects + triggers),
    lowest id on ties — the failover candidate that loses nothing any
    quorum ever acked. *)

type promotion = {
  pm_session : Session.t;
  pm_replica : int;
  pm_report : Session.recovery_report;
      (** truncated tails at promotion — 0 on both streams under
          flush-aligned shipping *)
}

val promote :
  ?durability:Commit_pipeline.mode ->
  schema:(Session.t -> unit) ->
  t ->
  int ->
  promotion
(** Promote replica [i]: recover a session from its persisted log copies
    (truncating to the last complete commit boundary), run [schema] on it
    (§5.1.3), and retire the old manager: a later flush on the old
    primary ships nothing and publishes no quorum progress, so its
    [Quorum] acks stay parked. The new primary inherits the
    old primary's {!Session.settings} — store kind, pages, pool, capacity
    knobs and engine — so it is the primary it replaces; [durability],
    when given, overrides its mode (the replicas that made a quorum are
    gone). Attach a new manager to the returned session to rebuild the
    fleet (seed it with [~failover_count]). *)

val counters : t -> (string * int) list
(** [ship_batches], [ship_bytes], [ship_points], [redundant_feeds],
    [failover_count], [replica_acked_offset] (fleet floor of persisted
    offsets), the primary pipelines' [quorum_waits] / [quorum_commits] /
    [quorum_pending] sums, and per-replica
    [replicaI.objects_offset] / [replicaI.triggers_offset]. *)
