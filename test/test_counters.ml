(* The session counter surface: the exact key set (what bench/e2e's
   layers.ml and odectl read), its sharded merge, and the reset rule —
   counters zeroed, gauges and peaks untouched. *)

module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Sharded = Ode_parallel.Sharded
module Value = Ode_objstore.Value

(* Keys every store lists, under [objects.] and [triggers.]. *)
let store_keys =
  [
    "ack_lag_ticks"; "auto_ckpts"; "avg_batch_size"; "batch_flushes"; "batched_commits";
    "ckpt_deltas"; "ckpt_fulls"; "ckpt_incremental_bytes"; "deletes"; "dirty_rids";
    "flushed_commits"; "inserts"; "max_batch_size"; "mvcc.chains"; "mvcc.live_snapshots";
    "mvcc.max_chain_len"; "mvcc.oldest_snapshot_lag"; "mvcc.s_locks_avoided";
    "mvcc.snapshot_reads"; "mvcc.versions_installed"; "mvcc.versions_pruned"; "pending_acks";
    "quorum_commits"; "quorum_pending"; "quorum_waits"; "reads"; "segments_retired";
    "segments_sealed"; "updates"; "wal_bytes"; "wal_flushes"; "wal_footprint";
    "wal_retired_bytes";
  ]

(* The disk store adds its page, pool and bloom-filter keys. *)
let disk_store_keys =
  [
    "bloom_bits"; "bloom_fp"; "bloom_incremental_rebuilds"; "bloom_keys"; "bloom_negatives";
    "bloom_stale_keys"; "page_reads"; "page_writes"; "pages"; "pool_evictions"; "pool_hits";
    "pool_misses"; "pool_writebacks"; "relocations";
  ]

let session_wide_keys =
  [
    "intern.events"; "intern.lookups"; "locks.blocks"; "locks.deadlocks"; "locks.s_granted";
    "locks.upgrades"; "locks.x_granted"; "rt.activations"; "rt.cache_flushes"; "rt.cache_hits";
    "rt.cache_misses"; "rt.deactivations"; "rt.fires_dependent"; "rt.fires_end";
    "rt.fires_immediate"; "rt.fires_independent"; "rt.fires_phoenix"; "rt.fsm_moves";
    "rt.index_probes"; "rt.index_skips"; "rt.local_activations"; "rt.mask_evals"; "rt.posts";
    "rt.s_locks_avoided"; "rt.snapshot_reads"; "rt.state_writes"; "rt.write_conflicts";
    "txn.aborted"; "txn.begun"; "txn.committed"; "txn.system";
  ]

let both keys = List.concat_map (fun k -> [ "objects." ^ k; "triggers." ^ k ]) keys

let session_keys kind =
  let store = match kind with `Mem -> store_keys | `Disk -> store_keys @ disk_store_keys in
  List.sort String.compare (both store @ session_wide_keys)

(* Keys a reset zeroes: every counter, and [avg_batch_size], the mean of
   two of them. Every other key is a gauge or a peak. *)
let zeroed_by_reset =
  both
    [
      "ack_lag_ticks"; "auto_ckpts"; "avg_batch_size"; "batch_flushes"; "batched_commits";
      "ckpt_deltas"; "ckpt_fulls"; "ckpt_incremental_bytes"; "deletes"; "flushed_commits";
      "inserts"; "mvcc.s_locks_avoided"; "mvcc.snapshot_reads"; "mvcc.versions_installed";
      "mvcc.versions_pruned"; "quorum_commits"; "quorum_waits"; "reads"; "segments_retired";
      "segments_sealed"; "updates"; "wal_flushes"; "wal_retired_bytes"; "bloom_fp";
      "bloom_incremental_rebuilds"; "bloom_negatives"; "page_reads"; "page_writes";
      "pool_evictions"; "pool_hits"; "pool_misses"; "pool_writebacks"; "relocations";
    ]
  @ List.filter (fun k -> k <> "intern.events") session_wide_keys

(* Each shard's own keys, attached to its session's registry. All but the
   two peaks, [fleet.rounds] and [fleet.mailbox_hwm], are counters. *)
let fleet_keys =
  List.map (( ^ ) "fleet.")
    [
      "aborted"; "committed"; "failed"; "foreign"; "forwards_in"; "forwards_out"; "mailbox_hwm";
      "rounds"; "tasks"; "trigger_forwards";
    ]

let fleet_peaks = [ "fleet.mailbox_hwm"; "fleet.rounds" ]

let kind_name = function `Mem -> "mem" | `Disk -> "disk"

(* Cards with both credit-card triggers, a mix of buys and payments (some
   denied), a checkpoint and snapshot reads: every layer moves. *)
let workload kind =
  let env = Session.create ~store:kind ~pool_capacity:4 () in
  Credit_card.define_all env;
  let cards =
    Session.with_txn env (fun txn ->
        let merchant = Credit_card.new_merchant env txn ~name:"m" in
        List.init 3 (fun i ->
            let customer = Credit_card.new_customer env txn ~name:(string_of_int i) in
            let card = Credit_card.new_card env txn ~customer ~limit:500.0 () in
            ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
            ignore
              (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 300.0 ]);
            (card, merchant)))
  in
  List.iteri
    (fun r (card, merchant) ->
      for _ = 1 to 10 do
        ignore
          (Session.attempt env (fun txn ->
               Credit_card.buy env txn card ~merchant ~amount:(float_of_int (40 + (r * 30)))))
      done;
      ignore (Session.attempt env (fun txn -> Credit_card.pay_bill env txn card ~amount:100.0));
      ignore (Session.with_snapshot env (fun txn -> Credit_card.balance env txn card)))
    cards;
  Session.checkpoint env;
  Session.sync env;
  env

let keys counters = List.map fst counters

let session_key_set kind () =
  let env = workload kind in
  Alcotest.(check (list string))
    (kind_name kind ^ " session keys")
    (session_keys kind)
    (List.sort String.compare (keys (Session.counters env)))

let sharded_key_set () =
  let fleet =
    Sharded.create ~shards:2 ~mode:Sharded.Deterministic
      ~schema:(fun ~shard:_ env -> Credit_card.define_all env)
      ()
  in
  Alcotest.(check (list string)) "fleet keys"
    (List.sort String.compare (session_keys `Mem @ fleet_keys))
    (List.sort String.compare (keys (Sharded.counters fleet)));
  Sharded.shutdown fleet

(* The fleet's counters cover the same window as the session's: a reset
   on every shard zeroes each fleet.* counter and keeps the two peaks. *)
let fleet_reset_keeps_peaks () =
  let k = 2 in
  let fleet =
    Sharded.create ~shards:k ~mode:Sharded.Deterministic
      ~schema:(fun ~shard:_ env -> Credit_card.define_all env)
      ()
  in
  for key = 0 to k - 1 do
    Sharded.submit fleet ~key (fun ctx txn ->
        let env = ctx.Sharded.session in
        let customer = Credit_card.new_customer env txn ~name:"c" in
        let card = Credit_card.new_card env txn ~customer ~limit:100.0 () in
        let big_buy = Session.user_event_id env txn card "BigBuy" in
        ctx.Sharded.forward ~payload:[ Value.Float 1.0 ] ~obj:card ~event:big_buy ())
  done;
  Sharded.sync fleet;
  let before = Sharded.counters fleet in
  for key = 0 to k - 1 do
    Sharded.with_shard fleet ~key Session.reset_counters
  done;
  let after = Sharded.counters fleet in
  let value counters key = List.assoc key counters in
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " moved before the reset") true (value before key > 0))
    (fleet_peaks @ [ "fleet.tasks"; "fleet.committed"; "fleet.forwards_out"; "fleet.forwards_in" ]);
  List.iter
    (fun key ->
      if List.mem key fleet_peaks then
        Alcotest.(check int) (key ^ " kept") (value before key) (value after key)
      else Alcotest.(check int) (key ^ " zeroed") 0 (value after key))
    fleet_keys;
  Sharded.shutdown fleet

let reset_zeroes_counters_only kind () =
  let env = workload kind in
  let before = Session.counters env in
  Session.reset_counters env;
  let after = Session.counters env in
  let value counters key = List.assoc key counters in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " moved before the reset") true (value before key > 0))
    (both [ "flushed_commits"; "wal_flushes"; "reads"; "mvcc.versions_installed" ]
    @ [ "rt.posts"; "txn.committed" ]
    @ if kind = `Disk then [ "objects.pool_hits" ] else []);
  List.iter
    (fun (key, v) ->
      if List.mem key zeroed_by_reset then Alcotest.(check int) (key ^ " zeroed") 0 v
      else Alcotest.(check int) (key ^ " untouched") (value before key) v)
    after;
  Alcotest.(check bool) "wal_bytes is a gauge" true (value after "objects.wal_bytes" > 0);
  Alcotest.(check bool) "mvcc.chains is a gauge" true (value after "objects.mvcc.chains" > 0)

let suite =
  [
    Alcotest.test_case "session key set (mem)" `Quick (session_key_set `Mem);
    Alcotest.test_case "session key set (disk)" `Quick (session_key_set `Disk);
    Alcotest.test_case "sharded key set" `Quick sharded_key_set;
    Alcotest.test_case "fleet reset keeps peaks" `Quick fleet_reset_keeps_peaks;
    Alcotest.test_case "reset zeroes counters only (mem)" `Quick (reset_zeroes_counters_only `Mem);
    Alcotest.test_case "reset zeroes counters only (disk)" `Quick
      (reset_zeroes_counters_only `Disk);
  ]
