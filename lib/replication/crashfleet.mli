(** Fleet-scale crash exploration for {!Replication}.

    A seeded account workload (deposits; overdrafting withdrawals vetoed
    by a perpetual trigger; a firing log materialised in object state)
    runs on a disk-backed primary in [Quorum] durability with attached
    replicas. {!sweep} kills the primary at {e every} WAL-flush point and
    {e every} ship point of a fault-free baseline (through
    {!Ode_storage.Sweep}, with [crash@wal_flush:K] and [crash@ship:K]
    plans on the primary's fault plane), promotes the
    furthest-ahead replica, resumes the unfinished schedule suffix on the
    new primary using the per-card committed-op cursor, and checks:

    - {e quorum durability}: no commit whose durability ack was released
      is missing after failover;
    - {e at-most-once firing}: the durable trigger-firing log equals the
      never-crashed oracle's exactly — no committed firing duplicated or
      lost across the failover;
    - {e oracle agreement}: the final state equals a sequential
      never-crashed oracle, field for field;
    - {e clean truncation}: promotion reports a zero truncated tail on
      both streams (shipping is flush-aligned);
    - {e same configuration}: the promoted primary keeps the old
      primary's settings (pages, pool, capacity knobs, engine), except
      the durability the sweep overrides to [Immediate];
    - {e warm standby}: each replica's incrementally replayed state
      equals [Recovery.committed_state] of its own log copy.

    Deterministic: the same [config] reproduces the same point numbering
    and the same post-failover states. *)

type config = {
  seed : int;
  ops : int;  (** schedule length *)
  cards : int;
  replicas : int;
  quorum : int;  (** [Quorum.n] *)
  max_batch : int;
  max_delay_ticks : int;
  page_size : int;
  pool_capacity : int;
}

val default_config : config
(** seed 0x0DE, 24 entries over 3 cards, 2 replicas with quorum 2,
    batches of 4 with a 12-tick deadline, 256-byte pages. *)

val define_schema : Ode.Session.t -> unit
(** The [Acct] class: methods [Dep]/[Wd]/[Mark]; perpetual triggers
    [Overdraft] ([after Wd & Neg], marks then [tabort]s) and [DepWatch]
    ([after Dep], marks). [marks] is the durable firing log; [ops] the
    per-card committed-operation cursor the resume rule reads. *)

type oracle

val oracle_run : config -> oracle
(** The never-crashed sequential reference ([`Mem], [Immediate], no
    replication) of the seeded schedule: about a fifth of its entries
    overdraft and abort through the trigger veto. *)

val run :
  oracle:oracle ->
  config:config ->
  Ode_storage.Faults.plan ->
  Ode_storage.Faults.t * string list
(** One deterministic run with [plan] armed on the primary's plane once
    setup is done, so its points index the workload only. Returns the
    plane and the violations. When the plan downs the primary, the run
    promotes, resumes and verifies as described above; a non-empty plan
    that never downs the primary is a violation. The plane's
    [Wal_flush] and [Ship] counts after [run ~oracle ~config []] are the
    sweep's domain. *)

val sweep : ?config:config -> unit -> Ode_storage.Sweep.result
(** The baseline, then one run per WAL-flush and ship point of it. The
    baseline's own violations are tagged ["baseline"]. *)
