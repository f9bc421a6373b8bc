(* WAL-shipping replication: quorum commit gating, incremental replica
   replay (including the abort-after-commit undo path and arbitrary
   re-chunking), truncated-tail reporting, failover promotion — and the
   Crashfleet centerpiece: kill the primary at every WAL-flush point and
   every ship point of a seeded workload, promote the furthest-ahead
   replica, and verify that no quorum-acked commit is lost, no committed
   trigger firing is duplicated, and the post-failover state equals a
   never-crashed sequential oracle. *)

module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Rid = Ode_storage.Rid
module Mem_store = Ode_storage.Mem_store
module Recovery = Ode_storage.Recovery
module Commit_pipeline = Ode_storage.Commit_pipeline
module Binc = Ode_util.Binc
module Session = Ode.Session
module Value = Ode_objstore.Value
module Replication = Ode_replication.Replication
module Replay = Ode_replication.Replication.Replay
module Crashfleet = Ode_replication.Crashfleet
module Faults = Ode_storage.Faults
module Sweep = Ode_storage.Sweep

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Mode parsing *)

let quorum_mode_strings () =
  let roundtrip text expected =
    match Commit_pipeline.mode_of_string text with
    | Error msg -> Alcotest.failf "%S rejected: %s" text msg
    | Ok mode ->
        Alcotest.(check string)
          (Printf.sprintf "%S normalises" text)
          expected
          (Commit_pipeline.mode_to_string mode)
  in
  roundtrip "quorum" "quorum:2:16:64";
  roundtrip "quorum:3" "quorum:3:16:64";
  roundtrip "quorum:1:8" "quorum:1:8:64";
  roundtrip "quorum:2:4:32" "quorum:2:4:32";
  List.iter
    (fun text ->
      match Commit_pipeline.mode_of_string text with
      | Ok _ -> Alcotest.failf "%S should be rejected" text
      | Error _ -> ())
    [ "quorum:0"; "quorum:2:0"; "quorum:2:4:0"; "quorum:x"; "quorum:2:4:8:1" ]

(* ------------------------------------------------------------------ *)
(* Replay *)

let make_store ?(durability = Ode_storage.Commit_pipeline.Immediate) () =
  let mgr = Txn.create_mgr () in
  let settings = { Ode_storage.Settings.default with durability } in
  let store = Mem_store.ops (Mem_store.create ~settings ~mgr ~name:"t" ()) in
  (mgr, store)

let commit_write mgr store payload =
  let txn = Txn.begin_txn mgr in
  let rid = store.Store.insert txn (b payload) in
  Txn.commit txn;
  (txn, rid)

let check_state msg replay want =
  let got = Replay.state replay in
  Alcotest.(check int) (msg ^ ": record count") (List.length want) (List.length got);
  List.iter2
    (fun (r1, b1) (r2, b2) ->
      Alcotest.(check string) (msg ^ ": rid") (Rid.to_string r1) (Rid.to_string r2);
      Alcotest.(check bytes) (msg ^ ": payload") b1 b2)
    want got

let replay_matches_recovery () =
  let mgr, store =
    make_store ~durability:(Commit_pipeline.Group { max_batch = 3; max_delay_ticks = 64 }) ()
  in
  for i = 1 to 7 do
    ignore (commit_write mgr store (Printf.sprintf "payload-%d" i))
  done;
  (let txn = Txn.begin_txn mgr in
   ignore (store.Store.insert txn (b "doomed"));
   Txn.abort txn);
  Commit_pipeline.flush store.Store.pipeline;
  let bytes = Wal.durable_bytes store.Store.wal in
  let want = Recovery.committed_state (Wal.decode_records bytes) in
  (* One shot. *)
  let r = Replay.create () in
  Replay.feed r ~base:0 bytes;
  check_state "one shot" r want;
  (* Redundant re-ship of the whole prefix: counted no-op. *)
  Replay.feed r ~base:0 bytes;
  Alcotest.(check int) "redundant counted" 1 (Replay.redundant r);
  Alcotest.(check int) "size unchanged" (Bytes.length bytes) (Replay.size r);
  check_state "after redundant feed" r want;
  (* Overlapping windows: only the fresh suffix applies. *)
  let r2 = Replay.create () in
  let len = Bytes.length bytes in
  let cut = len / 2 in
  Replay.feed r2 ~base:0 (Bytes.sub bytes 0 cut);
  Replay.feed r2 ~base:0 bytes;
  check_state "overlap" r2 want;
  Alcotest.(check int) "overlap size" len (Replay.size r2);
  (* A gap is a transport bug and must raise. *)
  let r3 = Replay.create () in
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Replication.Replay.feed: gap (have 0B, chunk base 4)")
    (fun () -> Replay.feed r3 ~base:4 bytes)

(* Byte-at-a-time re-chunking exercises the mid-record spill path: the
   in-process transport is flush-aligned, but a socket transport is not. *)
let replay_rechunked () =
  let mgr, store = make_store () in
  for i = 1 to 5 do
    ignore (commit_write mgr store (Printf.sprintf "chunky-%d" i))
  done;
  let bytes = Wal.durable_bytes store.Store.wal in
  let want = Recovery.committed_state (Wal.decode_records bytes) in
  let r = Replay.create () in
  for i = 0 to Bytes.length bytes - 1 do
    Replay.feed r ~base:i (Bytes.sub bytes i 1)
  done;
  check_state "byte-at-a-time" r want;
  Alcotest.(check int)
    "same records" (List.length (Wal.decode_records bytes))
    (List.length (Replay.records r))

let encode records =
  let w = Binc.writer () in
  List.iter (Wal.encode_record w) records;
  Binc.contents w

(* Last-marker-wins: an Abort shipped after a Commit_group must undo the
   already-applied transaction through its before-images. *)
let replay_abort_after_commit () =
  let r1 = Rid.of_int 1 and r2 = Rid.of_int 2 in
  let r = Replay.create () in
  let prefix =
    encode
      [
        Wal.Begin 1;
        Wal.Op (1, Wal.Insert (r1, b "v1"));
        Wal.Commit 1;
        Wal.Begin 2;
        Wal.Op (2, Wal.Update (r1, b "v1", b "v2"));
        Wal.Op (2, Wal.Insert (r2, b "w1"));
        Wal.Commit_group [ 2 ];
      ]
  in
  Replay.feed r ~base:0 prefix;
  check_state "applied" r [ (r1, b "v2"); (r2, b "w1") ];
  let abort = encode [ Wal.Abort 2 ] in
  Replay.feed r ~base:(Bytes.length prefix) abort;
  check_state "undone" r [ (r1, b "v1") ];
  (* And the standby state still matches what recovery would compute
     from the same log. *)
  let full = Bytes.cat prefix abort in
  check_state "recovery agrees" r
    (Recovery.committed_state (Wal.decode_records full))

(* ------------------------------------------------------------------ *)
(* Quorum gating at session level *)

let quorum_session ?(replicas = 3) () =
  let env =
    Session.create ~store:`Mem
      ~durability:
        (Commit_pipeline.Quorum { n = 2; max_batch = 4; max_delay_ticks = 16 })
      ()
  in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  let mgr = Replication.attach ~replicas env in
  (env, mgr)

let put env v =
  Session.with_txn env (fun txn ->
      let o = Session.pnew env txn ~cls:"Box" ~init:[ ("v", Value.Int v) ] () in
      ignore o;
      txn)

let quorum_gates_acks () =
  let env, mgr = quorum_session () in
  (* All three replicas live: sync releases every ack. *)
  let t1 = put env 1 in
  Session.sync env;
  Alcotest.(check bool) "t1 acked with full fleet" true (Txn.durably_acked t1);
  (* Two replicas paused leaves one live — short of quorum 2. *)
  Replication.pause mgr 1;
  Replication.pause mgr 2;
  let t2 = put env 2 in
  let t3 = put env 3 in
  Session.sync env;
  Alcotest.(check bool) "t2 parked" false (Txn.durably_acked t2);
  Alcotest.(check bool) "t3 parked" false (Txn.durably_acked t3);
  let waits = List.assoc "quorum_waits" (Replication.counters mgr) in
  Alcotest.(check bool) "quorum_waits counted" true (waits > 0);
  let pending = List.assoc "quorum_pending" (Replication.counters mgr) in
  Alcotest.(check bool) "acks parked" true (pending > 0);
  (* One replica back: quorum met, parked acks release without a new
     flush, in commit order (both or neither — and both were covered). *)
  Replication.resume mgr 1;
  Alcotest.(check bool) "t2 released on resume" true (Txn.durably_acked t2);
  Alcotest.(check bool) "t3 released on resume" true (Txn.durably_acked t3);
  Alcotest.(check int)
    "nothing pending" 0
    (List.assoc "quorum_pending" (Replication.counters mgr));
  (* The lagging replica catches up on resume and converges. *)
  Replication.resume mgr 2;
  let o0, _ = Replication.replica_offsets mgr 0 in
  let o2, _ = Replication.replica_offsets mgr 2 in
  Alcotest.(check int) "replica 2 caught up" o0 o2

(* No shipper attached: Quorum degrades to Group — local durability acks
   so a plain session cannot wedge. *)
let quorum_without_fleet_degrades () =
  let env =
    Session.create ~store:`Mem
      ~durability:
        (Commit_pipeline.Quorum { n = 2; max_batch = 4; max_delay_ticks = 16 })
      ()
  in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  let t1 = put env 1 in
  Session.sync env;
  Alcotest.(check bool) "acked locally" true (Txn.durably_acked t1)

(* ------------------------------------------------------------------ *)
(* Truncated-tail reporting (satellite: recover no longer swallows a
   dangling flushed tail silently) *)

let truncated_tail_reported () =
  let env = Session.create ~store:`Mem () in
  Session.define_class env ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  ignore (put env 7);
  (* Force a durable dangling tail: an in-flight transaction's records
     flushed without any commit marker. *)
  let obj_store, _ = Session.stores env in
  Wal.append obj_store.Store.wal (Wal.Begin 999);
  Wal.append obj_store.Store.wal (Wal.Op (999, Wal.Insert (Rid.of_int 9999, b "dangling")));
  Wal.flush obj_store.Store.wal;
  let image = Session.crash env in
  let report = Session.report_of_image image in
  Alcotest.(check int) "objects tail" 2 report.Session.rr_obj_tail;
  Alcotest.(check int) "triggers tail" 0 report.Session.rr_trig_tail;
  let env2 = Session.recover image in
  Session.define_class env2 ~name:"Box" ~fields:[ ("v", Value.Int 0) ] ();
  Alcotest.(check int)
    "dangler not replayed" 1
    (List.length (Session.cluster env2 ~cls:"Box"))

(* An Abort is a commit boundary: truncating it would resurrect the
   Commit it cancels (last-marker-wins). *)
let abort_is_a_boundary () =
  Alcotest.(check int)
    "abort closes the tail" 0
    (Recovery.truncated_tail
       [ Wal.Begin 1; Wal.Op (1, Wal.Insert (Rid.of_int 1, b "x")); Wal.Abort 1 ]);
  Alcotest.(check int)
    "trailing run counted" 3
    (Recovery.truncated_tail
       [
         Wal.Commit 1;
         Wal.Begin 2;
         Wal.Op (2, Wal.Insert (Rid.of_int 2, b "y"));
         Wal.Op (2, Wal.Update (Rid.of_int 2, b "y", b "z"));
       ])

(* ------------------------------------------------------------------ *)
(* Promotion without a crash: a warm replica becomes an equivalent
   primary (schema re-run per §5.1.3), trigger state included. *)

let promote_preserves_state () =
  let durability =
    Commit_pipeline.Quorum { n = 2; max_batch = 4; max_delay_ticks = 12 }
  in
  let env = Session.create ~store:`Disk ~page_size:256 ~durability () in
  Crashfleet.define_schema env;
  let card =
    Session.with_txn env (fun txn ->
        let o =
          Session.pnew env txn ~cls:"Acct"
            ~init:[ ("idx", Value.Int 0); ("bal", Value.Int 100) ]
            ()
        in
        ignore (Session.activate env txn o ~trigger:"Overdraft" ~args:[]);
        ignore (Session.activate env txn o ~trigger:"DepWatch" ~args:[]);
        o)
  in
  Session.sync env;
  let mgr = Replication.attach ~replicas:2 env in
  for i = 1 to 9 do
    ignore
      (Session.with_txn env (fun txn ->
           Session.invoke env txn card "Dep" [ Value.Int i ]))
  done;
  Session.sync env;
  let primary_state =
    Session.with_txn env (fun txn ->
        List.map
          (fun f -> Value.to_int (Session.get_field env txn card f))
          [ "bal"; "ops"; "deps"; "marks" ])
  in
  let promo =
    Replication.promote ~schema:Crashfleet.define_schema mgr
      (Replication.furthest_ahead mgr)
  in
  Alcotest.(check int)
    "no truncated tail" 0
    promo.Replication.pm_report.Session.rr_obj_tail;
  (* The promoted-away primary never ships again: a late commit on it
     reaches no replica and is never quorum-acked. *)
  let offsets = Replication.replica_offsets mgr 0 in
  let deposit txn = ignore (Session.invoke env txn card "Dep" [ Value.Int 1 ]); txn in
  let late = Session.with_txn env deposit in
  Session.sync env;
  Alcotest.(check (pair int int)) "not shipped" offsets (Replication.replica_offsets mgr 0);
  Alcotest.(check bool) "late commit never quorum-acked" false (Txn.durably_acked late);
  let env2 = promo.Replication.pm_session in
  let card2 = List.hd (Session.cluster env2 ~cls:"Acct") in
  let promoted_state =
    Session.with_txn env2 (fun txn ->
        List.map
          (fun f -> Value.to_int (Session.get_field env2 txn card2 f))
          [ "bal"; "ops"; "deps"; "marks" ])
  in
  Alcotest.(check (list int)) "promoted state equals primary" primary_state
    promoted_state;
  (* The promoted session serves writes and still fires triggers: a
     deposit bumps the firing log. *)
  let card0 =
    List.find
      (fun o ->
        Session.with_txn env2 (fun txn ->
            Value.to_int (Session.get_field env2 txn o "idx") = 0))
      (Session.cluster env2 ~cls:"Acct")
  in
  let marks_before =
    Session.with_txn env2 (fun txn ->
        Value.to_int (Session.get_field env2 txn card0 "marks"))
  in
  ignore
    (Session.with_txn env2 (fun txn ->
         Session.invoke env2 txn card0 "Dep" [ Value.Int 5 ]));
  let marks_after =
    Session.with_txn env2 (fun txn ->
        Value.to_int (Session.get_field env2 txn card0 "marks"))
  in
  Alcotest.(check int) "DepWatch fires on the new primary" (marks_before + 1)
    marks_after;
  Alcotest.(check int)
    "failover counted" 1
    (List.assoc "failover_count" (Replication.counters mgr))

(* A promoted primary is the primary it replaces: it inherits the old
   primary's settings, unless [~durability] overrides the mode. *)
let promote_keeps_settings () =
  let durability = Commit_pipeline.Quorum { n = 2; max_batch = 4; max_delay_ticks = 12 } in
  let env =
    Session.create ~store:`Disk ~page_size:512 ~pool_capacity:8 ~durability
      ~engine:Ode_trigger.Runtime.reference_config ~wal_segment_bytes:2048 ~ckpt_full_every:3
      ~auto_checkpoint_bytes:4096 ()
  in
  Crashfleet.define_schema env;
  let deposits env =
    let acct =
      Session.with_txn env (fun txn ->
          Session.pnew env txn ~cls:"Acct" ~init:[ ("idx", Value.Int 0); ("bal", Value.Int 0) ] ())
    in
    for i = 1 to 80 do
      Session.with_txn env (fun txn -> ignore (Session.invoke env txn acct "Dep" [ Value.Int i ]))
    done;
    Session.sync env
  in
  let old = Session.settings env in
  let mgr = Replication.attach ~replicas:2 env in
  deposits env;
  let env2 =
    (Replication.promote ~schema:Crashfleet.define_schema mgr (Replication.furthest_ahead mgr))
      .Replication.pm_session
  in
  Alcotest.(check bool) "promotion inherits every setting" true (Session.settings env2 = old);
  let mgr2 = Replication.attach ~replicas:2 env2 in
  deposits env2;
  let counter name = List.assoc ("objects." ^ name) (Session.counters env2) in
  Alcotest.(check bool) "promoted primary seals segments" true (counter "segments_sealed" > 0);
  Alcotest.(check bool) "promoted primary auto-checkpoints" true (counter "auto_ckpts" > 0);
  let env3 =
    (Replication.promote ~durability:Commit_pipeline.Immediate
       ~schema:Crashfleet.define_schema mgr2 (Replication.furthest_ahead mgr2))
      .Replication.pm_session
  in
  Alcotest.(check bool) "explicit durability overrides, the rest is inherited" true
    (Session.settings env3
    = { old with storage = { old.storage with durability = Commit_pipeline.Immediate } })

(* ------------------------------------------------------------------ *)
(* The Crashfleet sweep: the centerpiece. *)

let no_violations what = function
  | [] -> ()
  | (plan, v) :: _ as all ->
      Alcotest.failf "%s: %d violations; first: [%s] %s" what (List.length all) plan v

(* [pin] fixes the sweep's domain, the workload's WAL-flush and ship
   points after setup; without it both must exceed 5. A plan that fires
   nowhere, or fires without downing the primary, is a violation: no
   violation means every point killed the primary. *)
let check_fleet_sweep ?pin seed =
  let result = Crashfleet.sweep ~config:{ Crashfleet.default_config with seed } () in
  let what = Printf.sprintf "seed %d" seed in
  let flushes = Faults.site_count result.Sweep.baseline Wal_flush in
  let ships = Faults.site_count result.Sweep.baseline Ship in
  (match pin with
  | Some pin -> Alcotest.(check (pair int int)) (what ^ " points") pin (flushes, ships)
  | None -> Alcotest.(check bool) (what ^ " points explored") true (flushes > 5 && ships > 5));
  Alcotest.(check int) (what ^ " one plan per point") (flushes + ships) result.Sweep.plans;
  no_violations what result.Sweep.violations

let fleet_sweep () = Seeds.with_seed "replication.fleet_sweep" check_fleet_sweep

let fleet_sweep_pinned () =
  List.iter
    (fun (seed, pin) -> check_fleet_sweep ~pin seed)
    [ (222, (7, 14)); (4242, (8, 16)); (90210, (8, 16)) ]

(* A ship point is an ordinary fault site: its plans round-trip through
   the plan syntax, and a failed send is lost and its range ships with
   the next flush (fleet_multi_seed tears one). *)
let ship_site () =
  let plan = Result.get_ok (Faults.plan_of_string "crash@ship:3") in
  Alcotest.(check bool) "parses to Nth (Ship, 3)" true
    (plan = [ { Faults.sel = Nth (Ship, 3); act = Crash } ]);
  Alcotest.(check string) "prints back" "crash@ship:3" (Faults.plan_to_string plan);
  let faults = Faults.create () in
  let env = Session.create ~store:`Disk ~faults () in
  Crashfleet.define_schema env;
  let mgr = Replication.attach ~replicas:1 env in
  Faults.reset faults;
  Faults.arm faults [ { Faults.sel = Nth (Ship, 1); act = Fail } ];
  let deposit () =
    Session.with_txn env (fun txn ->
        ignore (Session.pnew env txn ~cls:"Acct" ~init:[ ("idx", Value.Int 0) ] ()))
  in
  let shipped () = fst (Replication.replica_offsets mgr 0) in
  let before = shipped () in
  deposit ();
  Alcotest.(check int) "failed send delivered nothing" before (shipped ());
  deposit ();
  let objects, _ = Session.stores env in
  Alcotest.(check int) "next send carries the lost range" (Wal.durable_size objects.Store.wal)
    (shipped ())

(* Differential vs the sequential oracle across extra seeds (the CI
   matrix re-runs the whole suite under three fixed ODE_TEST_SEED
   values; this keeps a single run multi-seed too): one kill mid-way
   through the WAL flushes, one mid-way through the ship points, and a
   torn send there, which downs the primary like a crash. *)
let fleet_multi_seed () =
  Seeds.with_seed "replication.fleet_multi_seed" @@ fun base ->
  List.iter
    (fun offset ->
      let seed = base + offset in
      let config = { Crashfleet.default_config with seed; replicas = 3; quorum = 2 } in
      let oracle = Crashfleet.oracle_run config in
      let baseline, violations = Crashfleet.run ~oracle ~config [] in
      (match violations with
      | [] -> ()
      | v :: _ -> Alcotest.failf "seed %d baseline: %s" seed v);
      let mid site act =
        [ { Faults.sel = Nth (site, max 1 (Faults.site_count baseline site / 2)); act } ]
      in
      no_violations (Printf.sprintf "seed %d" seed)
        (Sweep.run
           [ mid Wal_flush Crash; mid Ship Crash; mid Ship (Torn 0.5) ]
           (Crashfleet.run ~oracle ~config)))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "quorum mode strings" `Quick quorum_mode_strings;
    Alcotest.test_case "replay matches recovery" `Quick replay_matches_recovery;
    Alcotest.test_case "replay re-chunked" `Quick replay_rechunked;
    Alcotest.test_case "replay abort after commit" `Quick replay_abort_after_commit;
    Alcotest.test_case "quorum gates acks" `Quick quorum_gates_acks;
    Alcotest.test_case "quorum degrades without fleet" `Quick
      quorum_without_fleet_degrades;
    Alcotest.test_case "truncated tail reported" `Quick truncated_tail_reported;
    Alcotest.test_case "abort is a boundary" `Quick abort_is_a_boundary;
    Alcotest.test_case "promotion preserves state" `Quick promote_preserves_state;
    Alcotest.test_case "promotion keeps the primary's settings" `Quick promote_keeps_settings;
    Alcotest.test_case "fleet crash sweep" `Quick fleet_sweep;
    Alcotest.test_case "fleet sweep domain pinned" `Quick fleet_sweep_pinned;
    Alcotest.test_case "ship is a fault site" `Quick ship_site;
    Alcotest.test_case "fleet multi-seed differential" `Quick fleet_multi_seed;
  ]
