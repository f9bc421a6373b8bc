(* WAL-shipping replication with quorum commit.

   A primary ships the durable byte ranges its two WALs (objects,
   triggers) gain at every commit-pipeline flush to N replicas over an
   in-process link abstraction. Replicas replay the stream continuously
   into warm standby state; the manager feeds each store's n-th-highest
   replica offset back into the [Quorum] commit pipeline, which releases
   parked durability acks in commit order. Failover truncates the chosen
   replica's log copy to its last complete commit boundary (flush
   alignment makes that a no-op in practice), re-runs schema definition
   per the paper's §5.1.3 recompile-on-recovery rule, and resumes as
   primary. *)

module Wal = Ode_storage.Wal
module Rid = Ode_storage.Rid
module Recovery = Ode_storage.Recovery
module Commit_pipeline = Ode_storage.Commit_pipeline
module Store = Ode_storage.Store
module Faults = Ode_storage.Faults
module Binc = Ode_util.Binc
module Metrics = Ode_util.Metrics
module Session = Ode.Session

type stream = [ `Objects | `Triggers ]

let stream_to_string = function `Objects -> "objects" | `Triggers -> "triggers"

type chunk = { ck_stream : stream; ck_base : int; ck_bytes : bytes }

(* ------------------------------------------------------------------ *)
(* Replay: a replica's standby copy of one WAL stream.                 *)
(* ------------------------------------------------------------------ *)

module Replay = struct
  type t = {
    log : Buffer.t;  (* the replica's persisted copy of the stream *)
    mutable spill : bytes;  (* undecoded suffix (mid-record bytes) *)
    mutable records_rev : Wal.record list;
    state : (int, Rid.t * bytes) Hashtbl.t;  (* committed record map *)
    pending_ops : (int, Wal.op list) Hashtbl.t;  (* in-flight, newest first *)
    applied_ops : (int, Wal.op list) Hashtbl.t;  (* committed, newest first *)
    mutable redundant : int;
  }

  let create () =
    {
      log = Buffer.create 4096;
      spill = Bytes.empty;
      records_rev = [];
      state = Hashtbl.create 256;
      pending_ops = Hashtbl.create 16;
      applied_ops = Hashtbl.create 64;
      redundant = 0;
    }

  let size t = Buffer.length t.log
  let redundant t = t.redundant
  let log_bytes t = Buffer.to_bytes t.log
  let records t = List.rev t.records_rev

  let put t rid payload = Hashtbl.replace t.state (Rid.to_int rid) (rid, payload)
  let drop t rid = Hashtbl.remove t.state (Rid.to_int rid)

  let apply_op t = function
    | Wal.Insert (rid, payload) | Wal.Update (rid, _, payload) -> put t rid payload
    | Wal.Delete (rid, _) -> drop t rid

  let undo_op t = function
    | Wal.Insert (rid, _) -> drop t rid
    | Wal.Update (rid, before, _) | Wal.Delete (rid, before) -> put t rid before

  let commit_txn t txn =
    let ops =
      match Hashtbl.find_opt t.pending_ops txn with Some ops -> ops | None -> []
    in
    Hashtbl.remove t.pending_ops txn;
    List.iter (apply_op t) (List.rev ops);
    Hashtbl.replace t.applied_ops txn ops

  let apply_record t record =
    match record with
    | Wal.Begin _ -> ()
    | Wal.Op (txn, op) ->
        let ops =
          match Hashtbl.find_opt t.pending_ops txn with Some ops -> ops | None -> []
        in
        Hashtbl.replace t.pending_ops txn (op :: ops)
    | Wal.Commit txn -> commit_txn t txn
    | Wal.Commit_group txns -> List.iter (commit_txn t) txns
    | Wal.Abort txn -> (
        (* Last marker wins: an Abort after a Commit cancels it, so a
           replayed-as-committed transaction must be undone through its
           before-images (newest first = reverse apply order). *)
        match Hashtbl.find_opt t.applied_ops txn with
        | Some ops ->
            List.iter (undo_op t) ops;
            Hashtbl.remove t.applied_ops txn
        | None -> Hashtbl.remove t.pending_ops txn)
    | Wal.Checkpoint entries ->
        (* Checkpoints are taken at quiescent points: no in-flight
           transactions survive one. *)
        Hashtbl.reset t.state;
        Hashtbl.reset t.pending_ops;
        Hashtbl.reset t.applied_ops;
        List.iter (fun (rid, payload) -> put t rid payload) entries
    | Wal.Ckpt_delta { entries; _ } ->
        (* Incremental manifest, also quiescent: overlay the dirtied
           rids (None = delete) without resetting — state accumulated
           since the full anchor stays valid. *)
        Hashtbl.reset t.pending_ops;
        Hashtbl.reset t.applied_ops;
        List.iter
          (fun (rid, payload) ->
            match payload with Some payload -> put t rid payload | None -> drop t rid)
          entries

  let feed t ~base chunk =
    let len = Buffer.length t.log in
    let clen = Bytes.length chunk in
    if base > len then
      invalid_arg
        (Printf.sprintf "Replication.Replay.feed: gap (have %dB, chunk base %d)"
           len base)
    else if base + clen <= len then
      (* Entirely within the persisted prefix: a re-ship after
         reconnect. Replay is idempotent by construction — the bytes were
         already applied, so this is a counted no-op. *)
      t.redundant <- t.redundant + 1
    else begin
      let fresh = Bytes.sub chunk (len - base) (clen - (len - base)) in
      Buffer.add_bytes t.log fresh;
      (* Decode spill + fresh incrementally; keep any trailing partial
         record as the next spill. Flush-aligned shipping never produces
         spill, but the link contract allows arbitrary re-chunking. *)
      let data =
        if Bytes.length t.spill = 0 then fresh else Bytes.cat t.spill fresh
      in
      let r = Binc.reader data in
      let rec consume upto =
        if Binc.at_end r then upto
        else
          match Wal.decode_record r with
          | record ->
              t.records_rev <- record :: t.records_rev;
              apply_record t record;
              consume (Binc.pos r)
          | exception Binc.Corrupt _ -> upto
      in
      let upto = consume 0 in
      t.spill <- Bytes.sub data upto (Bytes.length data - upto)
    end

  let state t =
    Hashtbl.fold (fun _ entry acc -> entry :: acc) t.state []
    |> List.sort (fun (a, _) (b, _) -> Rid.compare a b)
end

(* ------------------------------------------------------------------ *)
(* Link: one in-process primary->replica connection.                   *)
(* ------------------------------------------------------------------ *)

module Link = struct
  type t = {
    mutable up : bool;
    mutable queued : chunk list;  (* newest first while down *)
    deliver : chunk -> unit;
  }

  let create deliver = { up = true; queued = []; deliver }

  let send l chunk =
    if l.up then l.deliver chunk else l.queued <- chunk :: l.queued

  let pause l = l.up <- false

  let resume l =
    l.up <- true;
    let backlog = List.rev l.queued in
    l.queued <- [];
    List.iter l.deliver backlog
end

(* ------------------------------------------------------------------ *)
(* Manager: shipping, quorum feedback, failover.                       *)
(* ------------------------------------------------------------------ *)

type replica = {
  rp_id : int;
  rp_obj : Replay.t;
  rp_trig : Replay.t;
  rp_link : Link.t;
  mutable rp_sent_obj : int;
  mutable rp_sent_trig : int;
}

type t = {
  primary : Session.t;
  replicas : replica array;
  quorum_n : int;
  metrics : Metrics.t;
  ship_batches : Metrics.counter;
  ship_bytes : Metrics.counter;
  mutable ship_points : int;
  mutable failover_count : int;
  mutable retired : bool;  (* promoted away: never ships again *)
}

let quorum_of_mode = function
  | Commit_pipeline.Quorum { n; _ } -> n
  | Commit_pipeline.Immediate | Commit_pipeline.Group _ | Commit_pipeline.Async _
    -> 0

let replay_of r = function `Objects -> r.rp_obj | `Triggers -> r.rp_trig

(* The n-th highest persisted replica offset for a stream — the largest
   WAL prefix durable on at least [quorum_n] replicas. *)
let confirmed_offset t stream =
  let offs = Array.map (fun r -> Replay.size (replay_of r stream)) t.replicas in
  Array.sort (fun a b -> compare b a) offs;
  if t.quorum_n <= 0 || t.quorum_n > Array.length offs then 0
  else offs.(t.quorum_n - 1)

let publish_progress t =
  let obj_store, trig_store = Session.stores t.primary in
  Commit_pipeline.note_quorum_offset obj_store.Store.pipeline
    (confirmed_offset t `Objects);
  Commit_pipeline.note_quorum_offset trig_store.Store.pipeline
    (confirmed_offset t `Triggers)

let ship_stream t r stream wal sent set_sent =
  let durable = Wal.durable_size wal in
  if durable > sent then begin
    t.ship_points <- t.ship_points + 1;
    (* A ship point is a fault point of the primary's plane. A crash
       there kills the primary before this send; a torn send crashes the
       same way (no partial chunk leaves). *)
    let faults = Session.faults t.primary in
    match Faults.check faults Ship with
    | `Torn _ -> Faults.torn_crash faults Ship
    | `Proceed ->
        (* Global-offset range read: the retirement pins below guarantee
           the unshipped suffix is never retired out from under the
           shipper. *)
        let chunk =
          {
            ck_stream = stream;
            ck_base = sent;
            ck_bytes = Wal.read_range wal ~pos:sent ~len:(durable - sent);
          }
        in
        set_sent durable;
        Metrics.incr t.ship_batches;
        Metrics.add t.ship_bytes (Bytes.length chunk.ck_bytes);
        Link.send r.rp_link chunk
  end

let on_flush t () =
  if not t.retired then begin
    let obj_store, trig_store = Session.stores t.primary in
    Array.iter
      (fun r ->
        ship_stream t r `Objects obj_store.Store.wal r.rp_sent_obj (fun v ->
            r.rp_sent_obj <- v);
        ship_stream t r `Triggers trig_store.Store.wal r.rp_sent_trig (fun v ->
            r.rp_sent_trig <- v))
      t.replicas;
    publish_progress t
  end

(* Everything but the ship counters is state read at snapshot time. *)
let register_gauges t =
  let m = t.metrics in
  let over_replicas f init () = Array.fold_left f init t.replicas in
  Metrics.gauge m "replicas" (fun () -> Array.length t.replicas);
  Metrics.gauge m "quorum_n" (fun () -> t.quorum_n);
  Metrics.gauge m "ship_points" (fun () -> t.ship_points);
  Metrics.gauge m "failover_count" (fun () -> t.failover_count);
  Metrics.gauge m "redundant_feeds"
    (over_replicas (fun acc r -> acc + Replay.redundant r.rp_obj + Replay.redundant r.rp_trig) 0);
  Metrics.gauge m "replica_acked_offset" (fun () ->
      let floor =
        over_replicas (fun acc r -> min acc (Replay.size r.rp_obj + Replay.size r.rp_trig)) max_int ()
      in
      if floor = max_int then 0 else floor);
  List.iter
    (fun key ->
      Metrics.gauge m key (fun () ->
          let obj_store, trig_store = Session.stores t.primary in
          let get (store : Store.t) = Metrics.get (Commit_pipeline.metrics store.pipeline) key in
          get obj_store + get trig_store))
    [ "quorum_waits"; "quorum_commits"; "quorum_pending" ];
  Array.iter
    (fun r ->
      List.iter
        (fun stream ->
          Metrics.gauge m
            (Printf.sprintf "replica%d.%s_offset" r.rp_id (stream_to_string stream))
            (fun () -> Replay.size (replay_of r stream)))
        [ `Objects; `Triggers ])
    t.replicas

let attach ?(replicas = 2) ?(failover_count = 0) primary =
  if replicas < 1 then invalid_arg "Replication.attach: need >= 1 replica";
  let mk i =
    let rp_obj = Replay.create () and rp_trig = Replay.create () in
    let deliver ck =
      let replay = match ck.ck_stream with `Objects -> rp_obj | `Triggers -> rp_trig in
      Replay.feed replay ~base:ck.ck_base ck.ck_bytes
    in
    {
      rp_id = i;
      rp_obj;
      rp_trig;
      rp_link = Link.create deliver;
      rp_sent_obj = 0;
      rp_sent_trig = 0;
    }
  in
  let m = Metrics.create () in
  let t =
    {
      primary;
      replicas = Array.init replicas mk;
      quorum_n = quorum_of_mode (Session.settings primary).storage.durability;
      metrics = m;
      ship_batches = Metrics.counter m "ship_batches";
      ship_bytes = Metrics.counter m "ship_bytes";
      ship_points = 0;
      failover_count;
      retired = false;
    }
  in
  register_gauges t;
  let obj_store, trig_store = Session.stores primary in
  Commit_pipeline.attach_shipper obj_store.Store.pipeline (fun () -> on_flush t ());
  Commit_pipeline.attach_shipper trig_store.Store.pipeline (fun () -> on_flush t ());
  (* Retirement pins: the primary's full checkpoints may retire WAL
     segments, but never one some replica has not yet *persisted*. The
     floor is the slowest replica's replayed offset — a paused link's
     replica freezes its floor, pinning every later segment until it
     catches back up (promote replays the replica's own log copy, so a
     promotable standby is never left needing retired bytes). *)
  let floor replay_of () =
    Array.fold_left (fun acc r -> min acc (Replay.size (replay_of r))) max_int t.replicas
  in
  Wal.add_pin obj_store.Store.wal ~name:"replication" (floor (fun r -> r.rp_obj));
  Wal.add_pin trig_store.Store.wal ~name:"replication" (floor (fun r -> r.rp_trig));
  (* Initial sync: ship the already-durable prefix (a recovered primary's
     WAL starts with a checkpoint) so replicas are never behind a
     never-flushing stream. *)
  on_flush t ();
  t

let replica_replay t i stream = replay_of t.replicas.(i) stream

let replica_offsets t i =
  let r = t.replicas.(i) in
  (Replay.size r.rp_obj, Replay.size r.rp_trig)

let pause t i = Link.pause t.replicas.(i).rp_link

let resume t i =
  Link.resume t.replicas.(i).rp_link;
  publish_progress t

let furthest_ahead t =
  let weight r = Replay.size r.rp_obj + Replay.size r.rp_trig in
  let best = ref 0 in
  Array.iteri
    (fun i r -> if weight r > weight t.replicas.(!best) then best := i)
    t.replicas;
  !best

type promotion = {
  pm_session : Session.t;
  pm_replica : int;
  pm_report : Session.recovery_report;
}

let promote ?durability ~schema t replica =
  if replica < 0 || replica >= Array.length t.replicas then
    invalid_arg "Replication.promote: no such replica";
  t.retired <- true;
  (* the old primary must never ship again *)
  let r = t.replicas.(replica) in
  let image =
    Session.image_of_wals (Session.settings t.primary)
      (Replay.log_bytes r.rp_obj, Replay.log_bytes r.rp_trig)
  in
  let session = Session.recover ?durability image in
  (* §5.1.3: trigger code is recompiled on recovery — the new primary
     re-runs its schema definition before serving. *)
  schema session;
  t.failover_count <- t.failover_count + 1;
  { pm_session = session; pm_replica = replica; pm_report = Session.report_of_image image }

let counters t = Metrics.values t.metrics
