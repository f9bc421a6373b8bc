(** Crash-point exploration harness.

    Runs a deterministic, seeded credit-card trigger workload against the
    disk backend with a {!Ode_storage.Faults} plan armed, and checks the
    recovery invariants after an injected crash:

    - {e durability}: every transaction whose commit flush reached the
      durable WAL prefix is visible after recovery, field for field;
    - {e atomicity}: no effect of an aborted or in-flight transaction
      survives;
    - {e oracle agreement}: {!Ode_storage.Recovery.recover_disk} and
      {!Ode_storage.Recovery.recover_mem}, replaying the same durable
      bytes, produce identical record maps, both equal to
      {!Ode_storage.Recovery.committed_state} (the Mem_store oracle);
    - {e same configuration}: the recovered session runs with the
      settings the run's session crashed with ({!Session.settings});
    - {e trigger consistency}: recovered [TriggerState] rows agree with
      the trigger store's own committed prefix, pruned of activations
      whose anchoring object did not survive — and the recovered database
      still {e behaves} accordingly (an over-limit purchase is denied iff
      the DenyCredit activation survived).

    The workload probes its own visible state after every transaction and
    keys each probe by the two stores' durable WAL sizes, so a crash at
    any I/O point can be matched to the exact expected surviving state
    (commits flush synchronously, making durable size a commit clock).

    Everything is deterministic: the same [config] and plan reproduce the
    same I/O-point numbering, the same crash and the same recovered
    state, so any sweep failure is replayable from
    [odectl faults --fault-plan "crash@N"]. *)

module Faults := Ode_storage.Faults

type config = {
  seed : int;  (** workload PRNG seed *)
  txns : int;  (** scripted workload transactions after setup *)
  page_size : int;
  pool_capacity : int;
  durability : Ode_storage.Commit_pipeline.mode;
      (** commit pipeline mode for both stores. With a non-[Immediate]
          mode the "durable WAL size is a commit clock" assumption behind
          {!verify}'s exact-state ledger matching no longer holds (several
          commits become durable at once); use {!run} for such configs and
          check batch-atomic durability directly (see
          [test_crashpoints.ml]'s group-commit sweep). *)
}

val default_config : config
(** seed 0x0DE, 24 transactions, 256-byte pages, a single pool frame — small pages
    and a tiny pool maximise distinct I/O points per transaction and
    force buffer-pool evictions on a workload of only a few pages;
    [Immediate] durability (flush per commit). *)

type snapshot = {
  obj_w : int;  (** objects-store durable WAL bytes when probed *)
  trig_w : int;  (** triggers-store durable WAL bytes when probed *)
  obj_part : (string * string) list;  (** label → rendered object state *)
  trig_part : (string * string) list;  (** label → rendered activations *)
}

type outcome = Completed | Crashed of { point : int; site : Faults.site }

type run = {
  outcome : outcome;
  faults : Faults.t;
      (** the run's plane: I/O points consumed (crash point included),
          per-site counts and the fired log *)
  committed : int;  (** workload transactions that committed *)
  failed : int;  (** denied / faulted workload transactions *)
  image : Session.crash_image;  (** durable state at end of run *)
  snapshots : snapshot list;  (** oldest first; index 0 = empty state *)
  refs : (string * Ode_objstore.Oid.t option) list;  (** label → oid *)
}

val run : ?config:config -> plan:Faults.plan -> unit -> run
(** Run the workload under [plan]. An injected crash ends the run early
    (recorded in [outcome]); injected transient faults abort the current
    transaction and the workload continues. *)

val verify : ?ledger:snapshot list -> run -> string list
(** Check every recovery invariant against the run's crash image.
    Returns human-readable violations; [[]] means all invariants hold.

    [ledger] is the snapshot ledger expectations are read from and
    defaults to the run's own snapshots. A crash can land between a
    commit flush and the next state probe, leaving the newly durable
    state without a ledger entry of its own; {!sweep} therefore passes
    the fault-free baseline run's complete ledger, which is valid
    because execution is deterministic up to the injected crash point.

    When the run saw a transient [Fail] fault (which may have aborted a
    state probe mid-run, or deferred a commit's durability to the next
    flush), the exact-state comparison is skipped; the WAL-level oracle
    agreement, dangling-activation and behavioural-probe invariants are
    always checked. *)

val sweep :
  ?config:config ->
  ?stride:int ->
  ?torn:bool ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  unit ->
  Ode_storage.Sweep.result
(** Exhaustive crash-point exploration through {!Ode_storage.Sweep}: run
    the fault-free workload to learn the I/O-point space, then re-run it
    with [crash@p] for every point [p] (every [stride]-th point if
    [stride > 1]), verifying all invariants after each crash. With [torn]
    (default true), also sweep a torn variant of every WAL flush and
    every 3rd page write, at varying surviving fractions. Each violation
    is reported with the exact [--fault-plan] string that replays it. *)
