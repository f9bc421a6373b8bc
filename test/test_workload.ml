(* Deterministic workload scheduler: serialized increments under blocking,
   deadlock restart, and transaction-manager dependency semantics. *)

module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Mem_store = Ode_storage.Mem_store
module Workload = Ode_storage.Workload
module Lm = Ode_storage.Lock_manager
module Prng = Ode_util.Prng

let b = Bytes.of_string
let int_of_bytes bytes = int_of_string (Bytes.to_string bytes)
let bytes_of_int n = b (string_of_int n)

let setup () =
  let mgr = Txn.create_mgr () in
  let store = Mem_store.ops (Mem_store.create ~mgr ~name:"w" ()) in
  (mgr, store)

let seed_record mgr (store : Store.t) v =
  let txn = Txn.begin_txn mgr in
  let rid = store.Store.insert txn (bytes_of_int v) in
  Txn.commit txn;
  rid

let read_value mgr (store : Store.t) rid =
  let txn = Txn.begin_txn mgr in
  let v = int_of_bytes (Option.get (store.Store.read txn rid)) in
  Txn.commit txn;
  v

(* One step that reads and increments a counter record: the X lock makes
   the read-modify-write atomic; retries are safe because the granted lock
   makes the re-executed read instantaneous. *)
let increment (store : Store.t) rid txn =
  let v = int_of_bytes (Option.get (store.Store.read txn rid)) in
  store.Store.update txn rid (bytes_of_int (v + 1))

let no_lost_updates () =
  let mgr, store = setup () in
  let rid = seed_record mgr store 0 in
  let script i =
    { Workload.label = Printf.sprintf "inc-%d" i; steps = List.init 5 (fun _ -> increment store rid) }
  in
  let report = Workload.run mgr (List.init 8 script) in
  Alcotest.(check int) "all committed" 8 report.Workload.committed;
  Alcotest.(check int) "value = total increments" 40 (read_value mgr store rid);
  Alcotest.(check bool) "contention observed" true (report.Workload.block_events > 0)

let deadlock_restart () =
  let mgr, store = setup () in
  let a = seed_record mgr store 0 in
  let bb = seed_record mgr store 0 in
  let forward = { Workload.label = "fwd"; steps = [ increment store a; increment store bb ] } in
  let backward = { Workload.label = "bwd"; steps = [ increment store bb; increment store a ] } in
  let report = Workload.run mgr [ forward; backward ] in
  Alcotest.(check int) "both committed" 2 report.Workload.committed;
  Alcotest.(check bool) "a deadlock happened and was resolved" true
    (report.Workload.deadlock_restarts >= 1);
  Alcotest.(check int) "a incremented twice" 2 (read_value mgr store a);
  Alcotest.(check int) "b incremented twice" 2 (read_value mgr store bb)

let shuffled_schedule_deterministic () =
  let run seed =
    let mgr, store = setup () in
    let rid = seed_record mgr store 0 in
    let script i =
      { Workload.label = string_of_int i; steps = List.init 3 (fun _ -> increment store rid) }
    in
    let prng = Prng.create ~seed in
    let report = Workload.run ~schedule:(`Shuffled prng) mgr (List.init 4 script) in
    (report.Workload.turns, read_value mgr store rid)
  in
  let t1, v1 = run 99L in
  let t2, v2 = run 99L in
  Alcotest.(check int) "same turns for same seed" t1 t2;
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check int) "correct value" 12 v1

let dependency_commit_ok () =
  let mgr, store = setup () in
  let t1 = Txn.begin_txn mgr in
  let rid = store.Store.insert t1 (b "x") in
  Txn.commit t1;
  let t2 = Txn.begin_txn mgr in
  store.Store.update t2 rid (b "y");
  Txn.add_dependency t2 ~on:t1;
  Txn.commit t2;
  Alcotest.(check int) "both committed" 2 (Ode_util.Metrics.get (Txn.metrics mgr) "committed")

let dependency_abort_propagates () =
  let mgr, store = setup () in
  let t1 = Txn.begin_txn mgr in
  let rid = store.Store.insert t1 (b "x") in
  Txn.abort t1;
  ignore rid;
  let t2 = Txn.begin_txn mgr in
  Txn.add_dependency t2 ~on:t1;
  (match Txn.commit t2 with
  | _ -> Alcotest.fail "commit with aborted dependency must fail"
  | exception Txn.Dependency_failed { txn; on } ->
      Alcotest.(check int) "failing txn" t2.Txn.id txn;
      Alcotest.(check int) "failed dependency" t1.Txn.id on);
  Alcotest.(check bool) "t2 was aborted" true (t2.Txn.state = Txn.Aborted)

let txn_lifecycle_errors () =
  let mgr, _store = setup () in
  let t = Txn.begin_txn mgr in
  Txn.commit t;
  (match Txn.commit t with
  | _ -> Alcotest.fail "double commit"
  | exception Txn.Invalid_state _ -> ());
  match Txn.abort t with
  | _ -> Alcotest.fail "abort after commit"
  | exception Txn.Invalid_state _ -> ()

let locks_released_on_finish () =
  let mgr, store = setup () in
  let rid = seed_record mgr store 0 in
  let t1 = Txn.begin_txn mgr in
  store.Store.update t1 rid (b "1");
  Txn.commit t1;
  let lm = Txn.lock_mgr mgr in
  Alcotest.(check int) "no keys held after commit" 0
    (List.length (Lm.held_keys lm ~txn:t1.Txn.id));
  let t2 = Txn.begin_txn mgr in
  store.Store.update t2 rid (b "2");
  Txn.commit t2

let suite =
  [
    Alcotest.test_case "no lost updates under contention" `Quick no_lost_updates;
    Alcotest.test_case "deadlock detected and restarted" `Quick deadlock_restart;
    Alcotest.test_case "shuffled schedule deterministic" `Quick shuffled_schedule_deterministic;
    Alcotest.test_case "commit dependency satisfied" `Quick dependency_commit_ok;
    Alcotest.test_case "commit dependency failure aborts" `Quick dependency_abort_propagates;
    Alcotest.test_case "transaction lifecycle errors" `Quick txn_lifecycle_errors;
    Alcotest.test_case "2PL releases at finish" `Quick locks_released_on_finish;
  ]
