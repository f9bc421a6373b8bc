(** Fleet-scale crash exploration for {!Replication}.

    A seeded account workload (deposits; overdrafting withdrawals vetoed
    by a perpetual trigger; a firing log materialised in object state)
    runs on a disk-backed primary in [Quorum] durability with attached
    replicas. {!sweep} kills the primary at {e every} WAL-flush point and
    {e every} ship point of a fault-free baseline, promotes the
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

type entry = Dep of int * int | Wd of int * int  (** card, amount *)

val card_of : entry -> int
val entry_to_string : entry -> string

val schedule : config -> entry array
(** The seeded workload; about a fifth of the entries overdraft and
    abort through the trigger veto. *)

val define_schema : Ode.Session.t -> unit
(** The [Acct] class: methods [Dep]/[Wd]/[Mark]; perpetual triggers
    [Overdraft] ([after Wd & Neg], marks then [tabort]s) and [DepWatch]
    ([after Dep], marks). [marks] is the durable firing log; [ops] the
    per-card committed-operation cursor the resume rule reads. *)

type oracle = {
  o_committed : bool array;
  o_pre : int array;  (** committed ops on entry j's card before j *)
  o_state : card_state array;
}

and card_state = { cs_bal : int; cs_ops : int; cs_deps : int; cs_marks : int }

val oracle_run : config -> oracle
(** The never-crashed sequential reference ([`Mem], [Immediate], no
    replication). *)

type plan = [ `None | `Flush of int | `Ship of int ]
(** Kill nobody / at the k-th workload WAL-flush point / at the k-th
    workload ship point. *)

val plan_to_string : plan -> string

type run_result = {
  r_plan : plan;
  r_downed : bool;
  r_promoted : int option;
  r_flush_points : int;  (** meaningful on the baseline: sweep space *)
  r_ship_points : int;
  r_violations : string list;  (** empty on a correct run *)
}

val run : oracle:oracle -> config:config -> plan -> run_result
(** One deterministic run under [plan]; on a kill, promotes, resumes and
    verifies as described above. *)

type sweep_result = {
  sw_flush_points : int;
  sw_ship_points : int;
  sw_runs : int;  (** baseline + one run per point *)
  sw_downed : int;
  sw_violations : (string * string) list;  (** (plan, violation) *)
}

val sweep : ?config:config -> unit -> sweep_result
