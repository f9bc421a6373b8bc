(* Crash recovery: the recovered store equals the committed state, for
   both backends, across random histories with aborts, checkpoints, and
   torn (unflushed) tails. *)

module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Disk_store = Ode_storage.Disk_store
module Mem_store = Ode_storage.Mem_store
module Recovery = Ode_storage.Recovery
module Rid = Ode_storage.Rid
module Prng = Ode_util.Prng

let b = Bytes.of_string

let small_pages = { Ode_storage.Settings.default with page_size = 256; pool_capacity = 4 }

let make kind mgr name =
  match kind with
  | `Disk ->
      Disk_store.ops (Disk_store.create ~mgr ~name ~settings:small_pages ())
  | `Mem -> Mem_store.ops (Mem_store.create ~mgr ~name ())

let recover kind ~wal_bytes =
  let mgr = Txn.create_mgr () in
  let store =
    match kind with
    | `Disk -> Disk_store.ops (Recovery.recover_disk ~mgr ~name:"r" ~wal_bytes ())
    | `Mem -> Mem_store.ops (Recovery.recover_mem ~mgr ~name:"r" ~wal_bytes ())
  in
  (mgr, store)

let contents mgr (store : Store.t) =
  let txn = Txn.begin_txn mgr in
  let acc = ref [] in
  store.Store.iter txn (fun rid payload -> acc := (Rid.to_int rid, Bytes.to_string payload) :: !acc);
  Txn.commit txn;
  List.sort compare !acc

let committed_survive_uncommitted_dont kind () =
  let mgr = Txn.create_mgr () in
  let store = make kind mgr "s" in
  let txn = Txn.begin_txn mgr in
  let r_committed = store.Store.insert txn (b "durable") in
  Txn.commit txn;
  (* A second transaction writes but never commits (its records may sit in
     the unflushed WAL tail). *)
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b "lost"));
  store.Store.update txn r_committed (b "scribble");
  (* Crash now: only the durable prefix survives. *)
  let wal_bytes = Wal.durable_bytes store.Store.wal in
  let mgr2, recovered = recover kind ~wal_bytes in
  Alcotest.(check (list (pair int string))) "only committed state"
    [ (Rid.to_int r_committed, "durable") ]
    (contents mgr2 recovered)

let flushed_but_uncommitted_dont kind () =
  (* Even if uncommitted operations reach the durable log (flushed by a
     later commit of another store/txn), redo skips them. *)
  let mgr = Txn.create_mgr () in
  let store = make kind mgr "s" in
  let t1 = Txn.begin_txn mgr in
  ignore (store.Store.insert t1 (b "uncommitted"));
  (* Force the log with the uncommitted op in it. *)
  Wal.flush store.Store.wal;
  let wal_bytes = Wal.durable_bytes store.Store.wal in
  let mgr2, recovered = recover kind ~wal_bytes in
  Alcotest.(check (list (pair int string))) "flushed-but-uncommitted skipped" []
    (contents mgr2 recovered)

let checkpoint_is_a_base kind () =
  let mgr = Txn.create_mgr () in
  let store = make kind mgr "s" in
  let txn = Txn.begin_txn mgr in
  let r0 = store.Store.insert txn (b "base") in
  Txn.commit txn;
  store.Store.checkpoint ();
  let txn = Txn.begin_txn mgr in
  let r1 = store.Store.insert txn (b "after-ckpt") in
  store.Store.update txn r0 (b "base2");
  Txn.commit txn;
  let wal_bytes = Wal.durable_bytes store.Store.wal in
  let mgr2, recovered = recover kind ~wal_bytes in
  Alcotest.(check (list (pair int string))) "checkpoint + suffix"
    [ (Rid.to_int r0, "base2"); (Rid.to_int r1, "after-ckpt") ]
    (contents mgr2 recovered)

let recovery_idempotent kind () =
  let mgr = Txn.create_mgr () in
  let store = make kind mgr "s" in
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b "x"));
  Txn.commit txn;
  let wal_bytes = Wal.durable_bytes store.Store.wal in
  let mgr1, once = recover kind ~wal_bytes in
  let wal_bytes2 = Wal.durable_bytes once.Store.wal in
  let mgr2, twice = recover kind ~wal_bytes:wal_bytes2 in
  Alcotest.(check (list (pair int string))) "recover . recover = recover"
    (contents mgr1 once) (contents mgr2 twice)

let random_history kind seed () =
  let prng = Prng.create ~seed in
  let mgr = Txn.create_mgr () in
  let store = make kind mgr "s" in
  let committed = Hashtbl.create 32 in
  for _round = 1 to 40 do
    if Prng.chance prng 0.1 then store.Store.checkpoint ();
    let txn = Txn.begin_txn mgr in
    let view = Hashtbl.copy committed in
    for _op = 1 to Prng.int_in prng 1 8 do
      let live = Hashtbl.fold (fun rid _ acc -> rid :: acc) view [] in
      match (Prng.int prng 3, live) with
      | 0, _ ->
          let payload = Bytes.make (Prng.int prng 40) (Char.chr (97 + Prng.int prng 26)) in
          let rid = store.Store.insert txn payload in
          Hashtbl.replace view rid payload
      | 1, _ :: _ ->
          let rid = Prng.pick_list prng live in
          let payload = Bytes.make (Prng.int prng 40) 'v' in
          store.Store.update txn rid payload;
          Hashtbl.replace view rid payload
      | 2, _ :: _ ->
          let rid = Prng.pick_list prng live in
          store.Store.delete txn rid;
          Hashtbl.remove view rid
      | _, _ -> ()
    done;
    if Prng.chance prng 0.35 then Txn.abort txn
    else begin
      Txn.commit txn;
      Hashtbl.reset committed;
      Hashtbl.iter (fun rid payload -> Hashtbl.replace committed rid payload) view
    end
  done;
  (* Crash in the middle of one last never-committed transaction. *)
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b "in-flight"));
  let wal_bytes = Wal.durable_bytes store.Store.wal in
  let mgr2, recovered = recover kind ~wal_bytes in
  let expected =
    Hashtbl.fold (fun rid payload acc -> (Rid.to_int rid, Bytes.to_string payload) :: acc)
      committed []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int string))) "recovered = committed model" expected
    (contents mgr2 recovered)

let both label f = [
  Alcotest.test_case (label ^ " (mem)") `Quick (f `Mem);
  Alcotest.test_case (label ^ " (disk)") `Quick (f `Disk);
]

(* Replaying the same Commit_group batch twice onto a warm replica is a
   no-op: the WAL-shipping replica ([Replication.Replay]) treats a
   re-shipped prefix as a counted duplicate, so a retransmitting
   transport cannot double-apply a batch (satellite of the replication
   work; the shipping paths live in test_replication.ml). *)
let replay_batch_idempotent kind () =
  let mgr = Txn.create_mgr () in
  let settings =
    {
      small_pages with
      durability = Ode_storage.Commit_pipeline.Group { max_batch = 8; max_delay_ticks = 64 };
    }
  in
  let store =
    match kind with
    | `Disk ->
        Disk_store.ops (Disk_store.create ~settings ~mgr ~name:"p" ())
    | `Mem -> Mem_store.ops (Mem_store.create ~settings ~mgr ~name:"p" ())
  in
  let module Replay = Ode_replication.Replication.Replay in
  let replica = Replay.create () in
  (* First batch: ship it once. *)
  for i = 1 to 5 do
    let txn = Txn.begin_txn mgr in
    ignore (store.Store.insert txn (b (Printf.sprintf "batch1-%d" i)));
    Txn.commit txn
  done;
  Ode_storage.Commit_pipeline.flush store.Store.pipeline;
  let first = Wal.durable_bytes store.Store.wal in
  Replay.feed replica ~base:0 first;
  let snapshot = Replay.state replica in
  (* The same batch again, verbatim: applied state must not move. *)
  Replay.feed replica ~base:0 first;
  Alcotest.(check int) "duplicate counted" 1 (Replay.redundant replica);
  Alcotest.(check int) "no bytes appended" (Bytes.length first) (Replay.size replica);
  Alcotest.(check bool) "state unchanged" true (Replay.state replica = snapshot);
  (* A second batch ships; replaying batch 1 a third time afterwards is
     still a no-op, and the replica ends equal to the committed state. *)
  for i = 1 to 3 do
    let txn = Txn.begin_txn mgr in
    ignore (store.Store.insert txn (b (Printf.sprintf "batch2-%d" i)));
    Txn.commit txn
  done;
  Ode_storage.Commit_pipeline.flush store.Store.pipeline;
  let all = Wal.durable_bytes store.Store.wal in
  Replay.feed replica ~base:(Bytes.length first)
    (Bytes.sub all (Bytes.length first) (Bytes.length all - Bytes.length first));
  Replay.feed replica ~base:0 first;
  Alcotest.(check int) "second duplicate counted" 2 (Replay.redundant replica);
  let want = Recovery.committed_state (Wal.decode_records all) in
  let got = Replay.state replica in
  Alcotest.(check int) "record count" (List.length want) (List.length got);
  List.iter2
    (fun (r1, b1) (r2, b2) ->
      Alcotest.(check int) "rid" (Rid.to_int r1) (Rid.to_int r2);
      Alcotest.(check bytes) "payload" b1 b2)
    want got

let suite =
  List.concat
    [
      both "committed survive, in-flight lost" committed_survive_uncommitted_dont;
      both "flushed-but-uncommitted skipped" flushed_but_uncommitted_dont;
      both "checkpoint as redo base" checkpoint_is_a_base;
      both "recovery idempotent" recovery_idempotent;
      both "replayed batch idempotent" replay_batch_idempotent;
      [
        Alcotest.test_case "random history (mem)" `Quick (random_history `Mem 31L);
        Alcotest.test_case "random history (disk)" `Quick (random_history `Disk 32L);
        Alcotest.test_case "random history 2 (disk)" `Quick (random_history `Disk 33L);
      ];
    ]
