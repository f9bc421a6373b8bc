module Metrics = Ode_util.Metrics

type mode =
  | Immediate
  | Group of { max_batch : int; max_delay_ticks : int }
  | Async of { max_lag : int }
  | Quorum of { n : int; max_batch : int; max_delay_ticks : int }

type t = {
  wal : Wal.t;
  mode : mode;
  mutable tick : int;  (* logical clock: one tick per pipeline operation *)
  mutable queued : (Txn.t * int) list;  (* newest first; no commit marker yet *)
  mutable awaiting : (Txn.t * int) list;  (* marker in the WAL tail, flush pending *)
  (* Locally durable but awaiting remote durability, oldest first:
     (txn, enqueue tick, WAL byte offset that must be durable on [n]
     replicas before the ack may release). Offsets are monotone, so
     releasing a prefix releases in commit order. *)
  mutable quorum_pending : (Txn.t * int * int) list;
  mutable quorum_offset : int;  (* highest offset durable on >= n replicas *)
  mutable post_flush : (unit -> unit) option;  (* replication shipper hook *)
  metrics : Metrics.t;
  batched_commits : Metrics.counter;
  batch_flushes : Metrics.counter;
  flushed_commits : Metrics.counter;
  mutable max_batch_size : int;
  ack_lag_ticks : Metrics.counter;
  quorum_waits : Metrics.counter;
  quorum_commits : Metrics.counter;
  (* Auto-checkpoint policy: once the WAL has grown [auto_checkpoint_bytes]
     past the last checkpoint, [auto_checkpoint_due] turns true. The
     pipeline only *signals* — the owner (Session) takes the checkpoint
     at the next quiescent transaction boundary, because a checkpoint
     inside a flush would see the committing transaction's undo entry
     still live. 0 disables the policy. *)
  auto_checkpoint_bytes : int;
  mutable last_ckpt_size : int;
  auto_ckpts : Metrics.counter;
}

let pending t = List.length t.queued + List.length t.awaiting + List.length t.quorum_pending

let create ~mode ~auto_checkpoint_bytes wal =
  let m = Metrics.create () in
  let t =
    {
      wal;
      mode;
      tick = 0;
      queued = [];
      awaiting = [];
      quorum_pending = [];
      quorum_offset = 0;
      post_flush = None;
      metrics = m;
      batched_commits = Metrics.counter m "batched_commits";
      batch_flushes = Metrics.counter m "batch_flushes";
      flushed_commits = Metrics.counter m "flushed_commits";
      max_batch_size = 0;
      ack_lag_ticks = Metrics.counter m "ack_lag_ticks";
      quorum_waits = Metrics.counter m "quorum_waits";
      quorum_commits = Metrics.counter m "quorum_commits";
      auto_checkpoint_bytes;
      last_ckpt_size = 0;
      auto_ckpts = Metrics.counter m "auto_ckpts";
    }
  in
  Metrics.mean m "avg_batch_size" ~sum:"flushed_commits" ~count:"batch_flushes";
  Metrics.peak m "max_batch_size" (fun () -> t.max_batch_size);
  Metrics.gauge m "pending_acks" (fun () -> pending t);
  Metrics.gauge m "quorum_pending" (fun () -> List.length t.quorum_pending);
  t

let metrics t = t.metrics

let mode t = t.mode

let auto_checkpoint_due t =
  t.auto_checkpoint_bytes > 0 && Wal.durable_size t.wal - t.last_ckpt_size >= t.auto_checkpoint_bytes

(* Called by the store at the end of every checkpoint (manual or
   policy-driven): rearms the growth trigger. *)
let note_checkpoint t =
  if auto_checkpoint_due t then Metrics.incr t.auto_ckpts;
  t.last_ckpt_size <- Wal.durable_size t.wal

(* Append the queued batch's single Commit_group marker. One record per
   batch keeps torn-flush semantics all-or-nothing: the decoder only keeps
   complete records of a durable prefix, so the batch can never be split. *)
let materialize t =
  match t.queued with
  | [] -> ()
  | queued ->
      let ids = List.rev_map (fun ((txn : Txn.t), _) -> txn.id) queued in
      Wal.append t.wal (Wal.Commit_group ids);
      t.awaiting <- queued @ t.awaiting;
      t.queued <- []

let release_ack t (txn, enqueued_at) =
  Metrics.add t.ack_lag_ticks (t.tick - enqueued_at);
  Txn.resolve_ack txn

(* Release quorum-pending acks whose required offset the fleet has
   confirmed. The list is oldest-first with monotone offsets, so this
   releases a prefix — acks always release in commit order. *)
let release_quorum t =
  let rec go = function
    | (txn, enqueued_at, req) :: rest when req <= t.quorum_offset ->
        release_ack t (txn, enqueued_at);
        Metrics.incr t.quorum_commits;
        go rest
    | rest -> rest
  in
  t.quorum_pending <- go t.quorum_pending

let note_quorum_offset t offset =
  if offset > t.quorum_offset then t.quorum_offset <- offset;
  release_quorum t

let attach_shipper t hook = t.post_flush <- Some hook
let detach_shipper t = t.post_flush <- None

(* Everything materialized reached the durable prefix: resolve the acks —
   or, under [Quorum] with a shipper attached, park them until the fleet
   confirms the batch's offset. A [Quorum] pipeline with no shipper is a
   degraded single-site primary and acks on local durability (= [Group]). *)
let resolve_awaiting t =
  match t.awaiting with
  | [] -> ()
  | acked ->
      let n = List.length acked in
      Metrics.incr t.batch_flushes;
      Metrics.add t.flushed_commits n;
      if n > t.max_batch_size then t.max_batch_size <- n;
      (match (t.mode, t.post_flush) with
      | Quorum _, Some _ ->
          let req = Wal.durable_size t.wal in
          t.quorum_pending <-
            t.quorum_pending
            @ List.rev_map (fun (txn, enqueued_at) -> (txn, enqueued_at, req)) acked
      | _ -> List.iter (release_ack t) acked);
      t.awaiting <- []

let flush t =
  materialize t;
  Wal.flush t.wal;
  resolve_awaiting t;
  (match t.post_flush with None -> () | Some hook -> hook ());
  release_quorum t;
  if t.quorum_pending <> [] then Metrics.incr t.quorum_waits

(* A transient flush failure must not unwind the commit: another
   participant may already have made its part durable. The batch stays
   buffered in the WAL tail with its acks deferred and becomes durable
   with the next successful flush (delayed durability). A crash during
   the flush still propagates. *)
let attempt_flush t = try flush t with Faults.Injected_fault _ -> ()

let deadline_due t max_delay_ticks =
  match List.rev t.queued with
  | [] -> false
  | (_, oldest) :: _ -> t.tick - oldest >= max_delay_ticks

let tick t =
  t.tick <- t.tick + 1;
  match t.mode with
  | Group { max_delay_ticks; _ } | Quorum { max_delay_ticks; _ } ->
      if deadline_due t max_delay_ticks then attempt_flush t
  | Immediate | Async _ -> ()

let on_commit t (txn : Txn.t) =
  t.tick <- t.tick + 1;
  (* Advance the MVCC commit clock in pipeline-enqueue order (== flush
     order: batches flush in enqueue order and never reorder). Memoized
     per transaction, so the second store's pipeline reuses the stamp. *)
  ignore (Txn.stamp_commit txn);
  Txn.defer_ack txn;
  match t.mode with
  | Immediate ->
      Wal.append t.wal (Wal.Commit txn.id);
      t.awaiting <- (txn, t.tick) :: t.awaiting;
      attempt_flush t
  | Group { max_batch; max_delay_ticks } | Quorum { max_batch; max_delay_ticks; _ } ->
      Metrics.incr t.batched_commits;
      t.queued <- (txn, t.tick) :: t.queued;
      if List.length t.queued >= max_batch || deadline_due t max_delay_ticks then
        attempt_flush t
  | Async { max_lag } ->
      Metrics.incr t.batched_commits;
      t.queued <- (txn, t.tick) :: t.queued;
      if pending t > max_lag then attempt_flush t

(* ---- mode syntax (odectl / bench) ---- *)

let default_group = Group { max_batch = 16; max_delay_ticks = 64 }
let default_async = Async { max_lag = 32 }
let default_quorum = Quorum { n = 2; max_batch = 16; max_delay_ticks = 64 }

let mode_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let parts = String.split_on_char ':' s in
  let int_arg what v =
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (Printf.sprintf "bad %s %S (want a positive integer)" what v)
  in
  match parts with
  | [ "immediate" ] -> Ok Immediate
  | [ "group" ] -> Ok default_group
  | [ "group"; b ] -> (
      match int_arg "batch size" b with
      | Ok max_batch -> Ok (Group { max_batch; max_delay_ticks = 64 })
      | Error e -> Error e)
  | [ "group"; b; d ] -> (
      match (int_arg "batch size" b, int_arg "delay" d) with
      | Ok max_batch, Ok max_delay_ticks -> Ok (Group { max_batch; max_delay_ticks })
      | Error e, _ | _, Error e -> Error e)
  | [ "async" ] -> Ok default_async
  | [ "async"; l ] -> (
      match int_arg "lag window" l with
      | Ok max_lag -> Ok (Async { max_lag })
      | Error e -> Error e)
  | [ "quorum" ] -> Ok default_quorum
  | [ "quorum"; n ] -> (
      match int_arg "quorum size" n with
      | Ok n -> Ok (Quorum { n; max_batch = 16; max_delay_ticks = 64 })
      | Error e -> Error e)
  | [ "quorum"; n; b ] -> (
      match (int_arg "quorum size" n, int_arg "batch size" b) with
      | Ok n, Ok max_batch -> Ok (Quorum { n; max_batch; max_delay_ticks = 64 })
      | Error e, _ | _, Error e -> Error e)
  | [ "quorum"; n; b; d ] -> (
      match (int_arg "quorum size" n, int_arg "batch size" b, int_arg "delay" d) with
      | Ok n, Ok max_batch, Ok max_delay_ticks -> Ok (Quorum { n; max_batch; max_delay_ticks })
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
  | _ ->
      Error
        (Printf.sprintf
           "unknown durability mode %S (want immediate, group[:B[:D]], async[:L] or \
            quorum[:N[:B[:D]]])" s)

let mode_to_string = function
  | Immediate -> "immediate"
  | Group { max_batch; max_delay_ticks } ->
      Printf.sprintf "group:%d:%d" max_batch max_delay_ticks
  | Async { max_lag } -> Printf.sprintf "async:%d" max_lag
  | Quorum { n; max_batch; max_delay_ticks } ->
      Printf.sprintf "quorum:%d:%d:%d" n max_batch max_delay_ticks
