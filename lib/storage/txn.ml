module Metrics = Ode_util.Metrics

type state = Active | Committed | Aborted

type cursor = ..
type cursor += No_cursor

type t = {
  id : int;
  system : bool;
  snapshot : bool;
  mgr : mgr;
  mutable state : state;
  mutable deps : t list;
  mutable unacked : int;
  mutable commit_ts : int;  (* -1 until stamped by the commit pipeline *)
  mutable snapshot_ts : int;  (* -1 until pinned at first snapshot read *)
  mutable cursor : cursor;
}

and participant = {
  p_name : string;
  p_prepare : t -> unit;
  on_commit : t -> unit;
  on_abort : t -> unit;
}

and mgr = {
  lock_mgr : Lock_manager.t;
  mutable next_id : int;
  mutable participants : participant list;  (* in registration order *)
  metrics : Metrics.t;
  begun : Metrics.counter;
  committed : Metrics.counter;
  aborted : Metrics.counter;
  system_begun : Metrics.counter;
  (* MVCC commit clock: one tick per committed writer, advanced by the
     commit pipeline in flush-enqueue order (== commit order in this
     synchronous engine). Per-manager, so each Ode_parallel shard keeps
     its own clock. *)
  mutable commit_clock : int;
  live_snapshots : (int, int) Hashtbl.t;  (* txn id -> pinned snapshot ts *)
}

exception Invalid_state of string

exception Dependency_failed of { txn : int; on : int }

let create_mgr ?lock_mgr () =
  let lock_mgr = match lock_mgr with Some l -> l | None -> Lock_manager.create () in
  let m = Metrics.create () in
  {
    lock_mgr;
    next_id = 1;
    participants = [];
    metrics = m;
    begun = Metrics.counter m "begun";
    committed = Metrics.counter m "committed";
    aborted = Metrics.counter m "aborted";
    system_begun = Metrics.counter m "system";
    commit_clock = 0;
    live_snapshots = Hashtbl.create 8;
  }

let lock_mgr mgr = mgr.lock_mgr
let metrics mgr = mgr.metrics

let register_participant mgr p = mgr.participants <- mgr.participants @ [ p ]

let begin_txn ?(system = false) ?(snapshot = false) mgr =
  let id = mgr.next_id in
  mgr.next_id <- id + 1;
  Metrics.incr mgr.begun;
  if system then Metrics.incr mgr.system_begun;
  { id; system; snapshot; mgr; state = Active; deps = []; unacked = 0; commit_ts = -1;
    snapshot_ts = -1; cursor = No_cursor }

(* -------------------- MVCC commit clock and snapshots -------------------- *)

let is_snapshot t = t.snapshot

(* Stamp the transaction with the next commit timestamp; memoized so that
   however many store pipelines a transaction participates in, all its
   versions carry one timestamp — commits are atomic across stores. *)
let stamp_commit t =
  if t.commit_ts < 0 then begin
    t.mgr.commit_clock <- t.mgr.commit_clock + 1;
    t.commit_ts <- t.mgr.commit_clock
  end;
  t.commit_ts

let commit_ts t = t.commit_ts

let commit_clock mgr = mgr.commit_clock

(* Pin the snapshot at the current clock on first use: everything
   committed so far is visible, nothing after. Registration in
   [live_snapshots] holds the GC watermark down until the reader ends. *)
let pin_snapshot t =
  if not t.snapshot then
    raise (Invalid_state (Printf.sprintf "transaction %d is not a snapshot reader" t.id));
  if t.snapshot_ts < 0 then begin
    t.snapshot_ts <- t.mgr.commit_clock;
    Hashtbl.replace t.mgr.live_snapshots t.id t.snapshot_ts
  end;
  t.snapshot_ts

let snapshot_ts t = t.snapshot_ts

let oldest_snapshot mgr =
  Hashtbl.fold
    (fun _ ts acc -> match acc with None -> Some ts | Some best -> Some (min best ts))
    mgr.live_snapshots None

let live_snapshot_count mgr = Hashtbl.length mgr.live_snapshots

(* Versions at or below the watermark (bar the newest such) are invisible
   to every live or future snapshot and can be garbage-collected. *)
let gc_watermark mgr =
  match oldest_snapshot mgr with Some ts -> ts | None -> mgr.commit_clock

let oldest_snapshot_lag mgr =
  match oldest_snapshot mgr with Some ts -> mgr.commit_clock - ts | None -> 0

let set_cursor t cursor = t.cursor <- cursor

let is_active t = t.state = Active

let check_active t =
  if t.state <> Active then
    raise (Invalid_state (Printf.sprintf "transaction %d is not active" t.id))

let finish t state =
  t.state <- state;
  t.deps <- [];
  t.cursor <- No_cursor;
  Hashtbl.remove t.mgr.live_snapshots t.id;
  Lock_manager.release_all t.mgr.lock_mgr ~txn:t.id

let abort t =
  check_active t;
  List.iter (fun p -> p.on_abort t) (List.rev t.mgr.participants);
  finish t Aborted;
  Metrics.incr t.mgr.aborted

let commit t =
  check_active t;
  let check_dep on =
    match on.state with
    | Committed -> ()
    | Aborted ->
        abort t;
        raise (Dependency_failed { txn = t.id; on = on.id })
    | Active ->
        raise
          (Invalid_state
             (Printf.sprintf "transaction %d commit-depends on still-active %d" t.id on.id))
  in
  List.iter check_dep t.deps;
  (* Prepare phase: every participant stages its pending work (e.g. the
     trigger runtime flushing its write-back cache into the store) before
     any participant's [on_commit] makes the transaction durable. *)
  List.iter (fun p -> p.p_prepare t) t.mgr.participants;
  List.iter (fun p -> p.on_commit t) t.mgr.participants;
  finish t Committed;
  Metrics.incr t.mgr.committed

(* Durability-ack accounting, driven by the commit pipeline
   ({!Commit_pipeline}): each participating store defers the transaction's
   ack at [on_commit] and resolves it when the WAL force covering its
   commit record succeeds. A committed transaction is durably acked once
   every deferral has been resolved. *)

let defer_ack t = t.unacked <- t.unacked + 1

let resolve_ack t = if t.unacked > 0 then t.unacked <- t.unacked - 1

let durably_acked t = t.state = Committed && t.unacked = 0

let add_dependency t ~on =
  check_active t;
  if not (List.memq on t.deps) then t.deps <- on :: t.deps

let pp fmt t =
  Format.fprintf fmt "t%d%s(%s)" t.id
    (if t.system then "[sys]" else "")
    (match t.state with Active -> "active" | Committed -> "committed" | Aborted -> "aborted")
