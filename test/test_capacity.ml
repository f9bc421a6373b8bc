(* Million-object capacity engine: incremental checkpoint chains, WAL
   segment rotation and retirement, bloom-filtered rid lookups, and the
   session-level quiesce-then-checkpoint policy (experiment P5).

   The centerpiece is a seeded crash sweep: a random history with
   inserts, updates, deletes, aborts and a mix of full and incremental
   checkpoints runs with rotation enabled, the retained WAL is captured
   at every batch boundary, and recovery from each capture must equal a
   never-crashed model of the committed state at that point. *)

module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Rid = Ode_storage.Rid
module Bloom = Ode_storage.Bloom
module Disk_store = Ode_storage.Disk_store
module Mem_store = Ode_storage.Mem_store
module Recovery = Ode_storage.Recovery
module Settings = Ode_storage.Settings
module Prng = Ode_util.Prng
module Session = Ode.Session
module Value = Ode_objstore.Value
module Commit_pipeline = Ode_storage.Commit_pipeline
module Replication = Ode_replication.Replication

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Bloom filter: no false negatives, measured fp rate within 2x of the
   configured target at the sized capacity. *)

let bloom_fp_within_bound () =
  Seeds.with_seed "capacity.bloom_fp" @@ fun seed ->
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let expected = 13_000 and fp_rate = 0.01 in
  let bloom = Bloom.create ~seed ~expected ~fp_rate in
  (* distinct keys: low word is the index, high bits random *)
  let key i = (Prng.int rng 0x3FFFFFFF * 0x10000) + i in
  let members = Array.init expected key in
  Array.iter (Bloom.add bloom) members;
  Array.iter
    (fun k ->
      if not (Bloom.maybe_mem bloom k) then
        Alcotest.failf "false negative on member key %d" k)
    members;
  let probes = 50_000 in
  let fp = ref 0 in
  for i = 0 to probes - 1 do
    (* absent by construction: members have low word < expected *)
    let k = (Prng.int rng 0x3FFFFFFF * 0x10000) + expected + i in
    if Bloom.maybe_mem bloom k then incr fp
  done;
  let measured = float_of_int !fp /. float_of_int probes in
  Alcotest.(check bool)
    (Printf.sprintf "measured fp %.4f <= 2x configured %.4f" measured fp_rate)
    true
    (measured <= 2.0 *. fp_rate)

(* ------------------------------------------------------------------ *)
(* Segment rotation and retirement invariants at the store layer. *)

let commit_insert mgr (store : Store.t) payload =
  let txn = Txn.begin_txn mgr in
  let rid = store.Store.insert txn (b payload) in
  Txn.commit txn;
  rid

let contents mgr (store : Store.t) =
  let txn = Txn.begin_txn mgr in
  let acc = ref [] in
  store.Store.iter txn (fun rid payload ->
      acc := (Rid.to_int rid, Bytes.to_string payload) :: !acc);
  Txn.commit txn;
  List.sort compare !acc

let segments_rotate_and_retire () =
  let mgr = Txn.create_mgr () in
  let store =
    Disk_store.ops
      (Disk_store.create ~mgr ~name:"cap"
         ~settings:
           {
             Settings.default with
             page_size = 512;
             pool_capacity = 8;
             wal_segment_bytes = 512;
             ckpt_full_every = 2;
           }
         ())
  in
  let rids = ref [] in
  for i = 1 to 48 do
    rids := commit_insert mgr store (Printf.sprintf "record-%04d" i) :: !rids;
    if i mod 6 = 0 then store.Store.checkpoint ()
  done;
  let wal = store.Store.wal in
  let count = Ode_util.Metrics.get (Wal.metrics wal) in
  Alcotest.(check bool) "segments sealed" true (count "segments_sealed" > 0);
  Alcotest.(check bool) "segments retired" true (count "segments_retired" > 0);
  Alcotest.(check bool) "retirement moved the floor" true (Wal.retired_offset wal > 0);
  Alcotest.(check int) "retained = durable - retired"
    (Wal.durable_size wal - Wal.retired_offset wal)
    (Wal.retained_size wal);
  Alcotest.(check bool) "footprint bounded below total" true
    (Wal.retained_size wal < Wal.durable_size wal);
  (* The retained log is self-contained: recovery from it reproduces the
     live store even though the history below the anchor is gone. *)
  let wal_bytes = Wal.durable_bytes wal in
  let mgr2 = Txn.create_mgr () in
  let recovered = Disk_store.ops (Recovery.recover_disk ~mgr:mgr2 ~name:"r" ~wal_bytes ()) in
  Alcotest.(check (list (pair int string))) "recovery from retained log"
    (contents mgr store) (contents mgr2 recovered)

(* A freshly recovered store is re-anchored: its retained WAL is exactly
   one full checkpoint holding the recovered state, so recovery is
   idempotent and never replays the old history twice. *)
let recovery_re_anchors () =
  let mgr = Txn.create_mgr () in
  let store =
    Disk_store.ops
      (Disk_store.create ~mgr ~name:"cap"
         ~settings:{ Settings.default with wal_segment_bytes = 512; ckpt_full_every = 3 }
         ())
  in
  for i = 1 to 20 do
    ignore (commit_insert mgr store (Printf.sprintf "v%d" i));
    if i mod 5 = 0 then store.Store.checkpoint ()
  done;
  let wal_bytes = Wal.durable_bytes store.Store.wal in
  let mgr2 = Txn.create_mgr () in
  let once = Disk_store.ops (Recovery.recover_disk ~mgr:mgr2 ~name:"r1" ~wal_bytes ()) in
  (match Wal.durable_records once.Store.wal with
  | [ Wal.Checkpoint entries ] ->
      Alcotest.(check int) "anchor carries the whole state" (List.length (contents mgr store))
        (List.length entries)
  | records ->
      Alcotest.failf "recovered WAL should be a single full anchor, got %d records"
        (List.length records));
  let mgr3 = Txn.create_mgr () in
  let twice =
    Disk_store.ops
      (Recovery.recover_disk ~mgr:mgr3 ~name:"r2"
         ~wal_bytes:(Wal.durable_bytes once.Store.wal) ())
  in
  Alcotest.(check (list (pair int string))) "recover . recover = recover"
    (contents mgr2 once) (contents mgr3 twice)

(* ------------------------------------------------------------------ *)
(* Crash sweep: random history under rotation + incremental checkpoints,
   recovery at every batch boundary vs a never-crashed model. *)

let crash_sweep kind () =
  Seeds.with_seed "capacity.crash_sweep" @@ fun seed ->
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let mgr = Txn.create_mgr () in
  let settings =
    {
      Settings.default with
      page_size = 512;
      pool_capacity = 8;
      wal_segment_bytes = 512;
      ckpt_full_every = 3;
    }
  in
  let store =
    match kind with
    | `Disk -> Disk_store.ops (Disk_store.create ~mgr ~name:"sweep" ~settings ())
    | `Mem -> Mem_store.ops (Mem_store.create ~mgr ~name:"sweep" ~settings ())
  in
  let model : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let live = ref [] in
  (* Captures are keyed on the pre-crash durable length, not on segment
     layout: retirement rewrites the byte image's origin, so equality of
     whole images across captures is not an invariant — recovered state
     is. *)
  let captures = ref [] in
  for batch = 1 to 45 do
    let txn = Txn.begin_txn mgr in
    let staged = ref [] in
    (* rids this batch already deleted are gone for its later ops *)
    let gone = ref [] in
    let pickable () =
      List.filter (fun r -> not (List.exists (Rid.equal r) !gone)) !live
    in
    for _ = 1 to 1 + Prng.int rng 4 do
      let roll = Prng.float rng 1.0 in
      let pool = pickable () in
      if roll < 0.5 || pool = [] then begin
        let payload = Printf.sprintf "b%d-%d" batch (Prng.int rng 10_000) in
        let rid = store.Store.insert txn (b payload) in
        staged := `Insert (rid, payload) :: !staged
      end
      else if roll < 0.8 then begin
        let rid = Prng.pick_list rng pool in
        let payload = Printf.sprintf "u%d-%d" batch (Prng.int rng 10_000) in
        store.Store.update txn rid (b payload);
        staged := `Update (rid, payload) :: !staged
      end
      else begin
        let rid = Prng.pick_list rng pool in
        store.Store.delete txn rid;
        gone := rid :: !gone;
        staged := `Delete rid :: !staged
      end
    done;
    if Prng.chance rng 0.1 then Txn.abort txn
    else begin
      Txn.commit txn;
      List.iter
        (function
          | `Insert (rid, payload) ->
              Hashtbl.replace model (Rid.to_int rid) payload;
              live := rid :: !live
          | `Update (rid, payload) -> Hashtbl.replace model (Rid.to_int rid) payload
          | `Delete rid ->
              Hashtbl.remove model (Rid.to_int rid);
              live := List.filter (fun r -> not (Rid.equal r rid)) !live)
        (List.rev !staged)
    end;
    if batch mod 3 = 0 then store.Store.checkpoint ();
    let snapshot =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
    in
    captures := (Wal.durable_bytes store.Store.wal, snapshot) :: !captures
  done;
  (* the sweep must actually have exercised the capacity machinery *)
  Alcotest.(check bool) "fulls and deltas both happened" true
    (Ode_util.Metrics.get store.Store.metrics "ckpt_fulls" > 1
    && Ode_util.Metrics.get store.Store.metrics "ckpt_deltas" > 1);
  if kind = `Disk then
    Alcotest.(check bool) "sweep retired segments" true
      (Ode_util.Metrics.get store.Store.metrics "segments_retired" > 0);
  List.iteri
    (fun i (wal_bytes, want) ->
      let mgr2 = Txn.create_mgr () in
      let recovered =
        match kind with
        | `Disk -> Disk_store.ops (Recovery.recover_disk ~mgr:mgr2 ~name:"r" ~wal_bytes ())
        | `Mem -> Mem_store.ops (Recovery.recover_mem ~mgr:mgr2 ~name:"r" ~wal_bytes ())
      in
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "capture %d recovers to the model" i)
        want (contents mgr2 recovered))
    (List.rev !captures)

(* ------------------------------------------------------------------ *)
(* Retirement never drops bytes a paused replica still needs. *)

let retirement_respects_replication_pin () =
  let env =
    Session.create ~store:`Disk ~wal_segment_bytes:512 ~ckpt_full_every:1 ()
  in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  let mgr = Replication.attach ~replicas:1 env in
  let put v =
    Session.with_txn env (fun txn ->
        ignore (Session.pnew env txn ~cls:"Box" ~init:[ ("v", Value.Int v) ] ()))
  in
  for v = 1 to 10 do put v done;
  Replication.pause mgr 0;
  let frozen_floor, _ = Replication.replica_offsets mgr 0 in
  let obj_wal = (fst (Session.stores env)).Store.wal in
  (* grow the log well past the frozen floor, with full anchors eager to
     retire everything below themselves *)
  for v = 11 to 40 do
    put v;
    if v mod 10 = 0 then Session.checkpoint env
  done;
  Alcotest.(check bool) "log grew past the frozen floor" true
    (Wal.durable_size obj_wal > frozen_floor + 512);
  Alcotest.(check bool)
    (Printf.sprintf "retired %d <= paused replica floor %d" (Wal.retired_offset obj_wal)
       frozen_floor)
    true
    (Wal.retired_offset obj_wal <= frozen_floor);
  (* resume: the backlog delivers in order, the replica converges, and
     the next anchor may finally retire past the old floor *)
  Replication.resume mgr 0;
  let obj_off, trig_off = Replication.replica_offsets mgr 0 in
  Alcotest.(check int) "replica caught up (objects)" (Wal.durable_size obj_wal) obj_off;
  Alcotest.(check int) "replica caught up (triggers)"
    (Wal.durable_size (snd (Session.stores env)).Store.wal)
    trig_off;
  for v = 41 to 60 do put v done;
  Session.checkpoint env;
  Alcotest.(check bool) "retirement resumed past the old floor" true
    (Wal.retired_offset obj_wal > frozen_floor)

(* ------------------------------------------------------------------ *)
(* Quiesce-then-checkpoint at the session layer. *)

let ckpt_count env =
  let c = Session.counters env in
  List.assoc "objects.ckpt_fulls" c + List.assoc "objects.ckpt_deltas" c

let quiesce_then_checkpoint () =
  let env = Session.create ~store:`Mem () in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  (* quiescent: immediate *)
  let before = ckpt_count env in
  Session.checkpoint env;
  Alcotest.(check int) "immediate when quiescent" (before + 1) (ckpt_count env);
  Alcotest.(check bool) "nothing pending" false (Session.checkpoint_pending env);
  (* a writer in flight defers the checkpoint to its commit boundary *)
  let txn = Session.begin_txn env in
  let oid = Session.pnew env txn ~cls:"Box" () in
  Alcotest.(check bool) "writer in flight" false (Session.quiescent env);
  (match Session.checkpoint ~deadline:0 env with
  | () -> Alcotest.fail "deadline 0 with writers in flight must fail"
  | exception Session.Ode_error _ -> ());
  let before = ckpt_count env in
  Session.checkpoint env;
  Alcotest.(check bool) "deferred, not taken" true
    (Session.checkpoint_pending env && ckpt_count env = before);
  Session.set_field env txn oid "v" (Value.Int 7);
  Session.commit env txn;
  Alcotest.(check bool) "taken at the quiescent boundary" true
    ((not (Session.checkpoint_pending env)) && ckpt_count env = before + 1)

let checkpoint_deadline_exhausts () =
  let env = Session.create ~store:`Mem () in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  let t1 = Session.begin_txn env in
  ignore (Session.pnew env t1 ~cls:"Box" ());
  let t2 = Session.begin_txn env in
  ignore (Session.pnew env t2 ~cls:"Box" ());
  Session.checkpoint ~deadline:1 env;
  Alcotest.(check bool) "deferred" true (Session.checkpoint_pending env);
  (* t1's boundary passes with t2 still holding writes: the one-boundary
     deadline is exhausted and the request fails rather than lingering *)
  (match Session.commit env t1 with
  | () -> Alcotest.fail "deadline must exhaust at the non-quiescent boundary"
  | exception Session.Ode_error _ -> ());
  Alcotest.(check bool) "request cleared after failure" false
    (Session.checkpoint_pending env);
  Session.commit env t2

let auto_checkpoint_policy () =
  let env =
    Session.create ~store:`Mem ~wal_segment_bytes:1024 ~ckpt_full_every:2
      ~auto_checkpoint_bytes:2048 ()
  in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Str "") ] ();
  let blob = String.make 64 'x' in
  for _ = 1 to 80 do
    Session.with_txn env (fun txn ->
        ignore (Session.pnew env txn ~cls:"Box" ~init:[ ("v", Value.Str blob) ] ()))
  done;
  (* never called Session.checkpoint: the WAL-growth policy did *)
  Alcotest.(check bool) "auto checkpoints fired" true (ckpt_count env > 1);
  Alcotest.(check bool) "rotation + policy bound the footprint" true
    (List.assoc "objects.segments_retired" (Session.counters env) > 0);
  Alcotest.(check bool) "full/delta chain mixes both kinds" true
    (List.assoc "objects.ckpt_fulls" (Session.counters env) > 0
    && List.assoc "objects.ckpt_deltas" (Session.counters env) > 0)

(* ------------------------------------------------------------------ *)
(* Membership probe and the fast posting path. *)

let maybe_present_probe () =
  let mgr = Txn.create_mgr () in
  let store =
    Disk_store.ops
      (Disk_store.create ~mgr ~name:"probe"
         ~settings:{ Settings.default with ckpt_full_every = 1 } ())
  in
  let live = Array.init 30 (fun i -> commit_insert mgr store (Printf.sprintf "live%d" i)) in
  let doomed = Array.init 20 (fun i -> commit_insert mgr store (Printf.sprintf "dead%d" i)) in
  let txn = Txn.begin_txn mgr in
  Array.iter (store.Store.delete txn) doomed;
  Txn.commit txn;
  store.Store.checkpoint () (* full: bloom rebuilt from the live directory *);
  Array.iter
    (fun rid ->
      Alcotest.(check bool) "live rid maybe present" true (store.Store.maybe_present rid))
    live;
  Array.iter
    (fun rid ->
      Alcotest.(check bool) "deleted rid definitely absent" false
        (store.Store.maybe_present rid))
    doomed;
  let negatives_before = Ode_util.Metrics.get store.Store.metrics "bloom_negatives" in
  let absent = ref 0 in
  for i = 1_000_000 to 1_000_499 do
    if not (store.Store.maybe_present (Rid.of_int i)) then incr absent
  done;
  Alcotest.(check int) "never-inserted rids absent" 500 !absent;
  Alcotest.(check bool) "most probes answered by the bloom, no lock, no page" true
    (Ode_util.Metrics.get store.Store.metrics "bloom_negatives" - negatives_before >= 400)

(* Full anchors with a small committed delta patch the existing bloom
   filter in O(dirty) instead of re-hashing the whole directory. Deleted
   rids stay hashed in until the stale-key budget is blown, at which
   point the next anchor falls back to the full walk and flushes them. *)
let bloom_incremental_refresh () =
  let counter (store : Store.t) name = Ode_util.Metrics.get store.Store.metrics name in
  let mgr = Txn.create_mgr () in
  let store =
    Disk_store.ops
      (Disk_store.create ~mgr ~name:"incr"
         ~settings:{ Settings.default with ckpt_full_every = 1 } ())
  in
  let base =
    Array.init 2_000 (fun i -> commit_insert mgr store (Printf.sprintf "b%d" i))
  in
  store.Store.checkpoint ();
  Alcotest.(check int) "first anchor walks the whole directory" 0
    (counter store "bloom_incremental_rebuilds");
  (* small insert deltas: each full anchor is served by a patch *)
  let fresh = ref [] in
  for round = 1 to 3 do
    for i = 0 to 9 do
      fresh := commit_insert mgr store (Printf.sprintf "r%d.%d" round i) :: !fresh
    done;
    store.Store.checkpoint ();
    Alcotest.(check int) "small delta patched in place" round
      (counter store "bloom_incremental_rebuilds")
  done;
  List.iter
    (fun rid ->
      Alcotest.(check bool) "patched rid visible to the filter" true
        (store.Store.maybe_present rid))
    !fresh;
  (* deletes leave dead keys in the filter; small anchors keep patching
     until the stale count erodes the fp budget, then one anchor re-walks *)
  let deleted = ref [] in
  let cursor = ref 0 in
  let fell_back = ref false in
  let rounds = ref 0 in
  while (not !fell_back) && !rounds < 30 do
    incr rounds;
    let txn = Txn.begin_txn mgr in
    for _ = 1 to 20 do
      store.Store.delete txn base.(!cursor);
      deleted := base.(!cursor) :: !deleted;
      incr cursor
    done;
    Txn.commit txn;
    let before = counter store "bloom_incremental_rebuilds" in
    store.Store.checkpoint ();
    if counter store "bloom_incremental_rebuilds" = before then fell_back := true
  done;
  Alcotest.(check bool) "stale keys eventually force the full walk" true !fell_back;
  Alcotest.(check int) "full walk flushed the dead keys" 0
    (counter store "bloom_stale_keys");
  let absent =
    List.fold_left
      (fun n rid -> if store.Store.maybe_present rid then n else n + 1)
      0 !deleted
  in
  (* definitely-absent modulo bloom false positives *)
  Alcotest.(check bool)
    (Printf.sprintf "deleted rids absent after rebuild (%d/%d)" absent
       (List.length !deleted))
    true
    (absent * 10 >= List.length !deleted * 9)

let post_event_fast_drops_absent () =
  let env = Session.create ~store:`Disk ~ckpt_full_every:1 () in
  let fired = ref 0 in
  Session.define_class env ~name:"Item" ~events:[ Ode_event.Intern.User "ping" ]
    ~triggers:
      [
        {
          Session.tr_name = "OnPing";
          tr_params = [];
          tr_event = "ping";
          tr_perpetual = true;
          tr_coupling = Ode_trigger.Coupling.Immediate;
          tr_action = (fun _ _ -> incr fired);
          tr_posts = [];
          tr_reads = [];
          tr_writes = [];
          tr_pure = false;
        };
      ]
    ();
  let alive, dead =
    Session.with_txn env (fun txn ->
        let alive = Session.pnew env txn ~cls:"Item" () in
        let dead = Session.pnew env txn ~cls:"Item" () in
        ignore (Session.activate env txn alive ~trigger:"OnPing" ~args:[]);
        (alive, dead))
  in
  Session.with_txn env (fun txn -> Session.pdelete env txn dead);
  let event =
    Session.with_txn env (fun txn -> Session.user_event_id env txn alive "ping")
  in
  Session.with_txn env (fun txn ->
      Session.post_event_fast env txn alive ~event;
      (* deleted target: silently dropped before the trigger machinery *)
      Session.post_event_fast env txn dead ~event);
  Alcotest.(check int) "live target fired" 1 !fired

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "bloom: fp rate within 2x of target, no false negatives" `Quick
      bloom_fp_within_bound;
    Alcotest.test_case "segments rotate, retire, and stay recoverable" `Quick
      segments_rotate_and_retire;
    Alcotest.test_case "recovery re-anchors to a single full checkpoint" `Quick
      recovery_re_anchors;
    Alcotest.test_case "crash sweep vs model (disk)" `Quick (crash_sweep `Disk);
    Alcotest.test_case "crash sweep vs model (mem)" `Quick (crash_sweep `Mem);
    Alcotest.test_case "retirement respects a paused replica's pin" `Quick
      retirement_respects_replication_pin;
    Alcotest.test_case "quiesce-then-checkpoint defers to the boundary" `Quick
      quiesce_then_checkpoint;
    Alcotest.test_case "checkpoint deadline exhausts with writers in flight" `Quick
      checkpoint_deadline_exhausts;
    Alcotest.test_case "auto-checkpoint policy bounds the WAL" `Quick auto_checkpoint_policy;
    Alcotest.test_case "maybe_present: bloom-then-directory membership" `Quick
      maybe_present_probe;
    Alcotest.test_case "bloom: full anchors patch incrementally, stale keys force rebuild"
      `Quick bloom_incremental_refresh;
    Alcotest.test_case "post_event_fast drops postings to absent objects" `Quick
      post_event_fast_drops_absent;
  ]
