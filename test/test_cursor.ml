(* The per-transaction object cursor (Database): the first access reads
   the record under its lock and keeps the bytes, writes change only the
   kept bytes under an X lock taken at once, and commit-prepare logs one
   update per dirty object. Every reader inside the transaction must see
   its own writes; nothing outside it may, and an abort leaves no trace. *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Runtime = Ode_trigger.Runtime
module Database = Ode_objstore.Database
module Objrec = Ode_objstore.Objrec
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Rid = Ode_storage.Rid
module Replication = Ode_replication.Replication
module Prng = Ode_util.Prng

let define_acct env =
  Session.define_class env ~name:"Acct" ~fields:[ ("n", Dsl.int 0); ("tag", Dsl.str "") ] ()

let acct_env ?(store = `Mem) () =
  let env = Session.create ~store () in
  define_acct env;
  env

let new_acct env ?(n = 0) ?(tag = "") () =
  Session.with_txn env (fun txn ->
      Session.pnew env txn ~cls:"Acct" ~init:[ ("n", Dsl.int n); ("tag", Dsl.str tag) ] ())

let n_of env txn oid = Value.to_int (Session.get_field env txn oid "n")
let committed_n env oid = Session.with_snapshot env (fun txn -> n_of env txn oid)

(* The committed object records, through a lock-free snapshot scan. *)
let committed_state env =
  let obj_store, _ = Session.stores env in
  let rows = ref [] in
  let txn = Txn.begin_txn ~snapshot:true (Session.mgr env) in
  obj_store.Store.iter txn (fun rid payload ->
      rows := (Rid.to_int rid, Bytes.to_string payload) :: !rows);
  Txn.commit txn;
  List.sort compare !rows

let counter env name = List.assoc name (Session.counters env)

(* ------------------------------------------------------------------ *)

let reads_own_writes () =
  let env = acct_env () in
  let a = new_acct env ~n:1 () in
  Session.with_txn env (fun txn ->
      Session.set_field env txn a "n" (Dsl.int 2);
      Alcotest.(check int) "get_field after set_field" 2 (n_of env txn a);
      Session.set_field env txn a "n" (Dsl.int 3);
      Alcotest.(check int) "second write" 3 (n_of env txn a);
      let db = Session.database env in
      Alcotest.(check int) "Database.get_field" 3 (Value.to_int (Database.get_field db txn a "n"));
      Alcotest.(check int) "Database.get" 3 (Value.to_int (Objrec.get (Database.get db txn a) "n")));
  Alcotest.(check int) "committed" 3 (committed_n env a)

(* A certified snapshot-safe trigger's mask reads lock-free; the
   object it reads was written earlier in the same transaction, so the
   read must come from the cursor, not the store's committed bytes. *)
let lock_free_mask_sees_own_write () =
  let env = Session.create () in
  let seen = ref (-1) in
  Session.define_class env ~name:"Gauge"
    ~fields:[ ("n", Dsl.int 0) ]
    ~events:[ Dsl.user_event "Ping" ]
    ~masks:
      [
        ( "Peek",
          fun env ctx ->
            seen := Value.to_int (Dsl.obj_get env ctx "n");
            true );
      ]
    ~triggers:
      [
        Dsl.trigger "Watch" ~perpetual:true ~event:"Ping & Peek" ~reads:[ "Gauge" ]
          ~action:(fun _ _ -> ());
      ]
    ();
  let gauge, ping =
    Session.with_txn env (fun txn ->
        let gauge = Session.pnew env txn ~cls:"Gauge" ~init:[ ("n", Dsl.int 7) ] () in
        ignore (Session.activate env txn gauge ~trigger:"Watch" ~args:[]);
        (gauge, Session.user_event_id env txn gauge "Ping"))
  in
  Alcotest.(check bool) "Watch certified" true
    (Runtime.snapshot_safe (Session.runtime env) ~cls:"Gauge" ~trigger:"Watch");
  Session.with_txn env (fun txn ->
      Session.set_field env txn gauge "n" (Dsl.int 42);
      Runtime.post (Session.runtime env) txn ~obj:gauge ~event:ping);
  Alcotest.(check int) "the lock-free mask read this transaction's write" 42 !seen;
  (* Another transaction's lock-free read still sees committed bytes. *)
  Session.with_txn env (fun txn -> Runtime.post (Session.runtime env) txn ~obj:gauge ~event:ping);
  Alcotest.(check int) "a later transaction reads the committed value" 42 !seen

let abort_leaves_no_trace () =
  let env = acct_env ~store:`Disk () in
  let a = new_acct env ~n:1 () in
  let b = new_acct env ~n:10 () in
  let mgr = Replication.attach ~replicas:1 env in
  let before = committed_state env in
  let versions () = counter env "objects.mvcc.versions_installed" in
  let versions_before = versions () in
  let txn = Session.begin_txn env in
  Session.set_field env txn a "n" (Dsl.int 2);
  Session.set_field env txn b "n" (Dsl.int 20);
  Session.set_field env txn a "n" (Dsl.int 3);
  let aborted = txn.Txn.id in
  Session.abort env txn;
  Alcotest.(check (list (pair int string))) "committed state unchanged" before
    (committed_state env);
  Alcotest.(check int) "no version installed" versions_before (versions ());
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "a reads its committed value" 1 (n_of env txn a);
      Alcotest.(check int) "b reads its committed value" 10 (n_of env txn b));
  (* A later commit forces the log past anything the abort buffered. *)
  Session.with_txn env (fun txn -> Session.set_field env txn b "n" (Dsl.int 11));
  let obj_store, _ = Session.stores env in
  List.iter
    (function
      | Wal.Op (id, Wal.Update _) when id = aborted ->
          Alcotest.fail "the aborted transaction logged an object update"
      | _ -> ())
    (Wal.durable_records obj_store.Store.wal);
  Session.sync env;
  let replica = Replication.replica_replay mgr 0 `Objects in
  Alcotest.(check (list (pair int string))) "the replica equals the primary" (committed_state env)
    (List.map
       (fun (rid, payload) -> (Rid.to_int rid, Bytes.to_string payload))
       (Replication.Replay.state replica))

(* [pdelete] removes the index key the cursor holds, not the store's
   pre-transaction one. *)
let pdelete_after_indexed_write () =
  let env = acct_env () in
  let a = new_acct env ~tag:"old" () in
  Session.with_txn env (fun txn -> Session.create_index env txn ~name:"by_tag" ~cls:"Acct" ~field:"tag");
  let keys () =
    List.map
      (fun (k, oids) -> (Value.to_str k, List.length oids))
      (Session.index_range env ~name:"by_tag" ())
  in
  let delete_after_retag txn =
    Session.set_field env txn a "tag" (Dsl.str "new");
    Session.pdelete env txn a
  in
  let txn = Session.begin_txn env in
  delete_after_retag txn;
  Session.abort env txn;
  Alcotest.(check (list (pair string int))) "abort: only the old key" [ ("old", 1) ] (keys ());
  Session.with_txn env delete_after_retag;
  Alcotest.(check (list (pair string int))) "commit: neither key" [] (keys ());
  Session.with_txn env (fun txn ->
      Alcotest.(check bool) "gone" false (Session.exists env txn a))

(* Scans and copies inside a transaction that dirtied an object see the
   dirtied bytes. *)
let scans_see_cursor () =
  let env = acct_env () in
  let a = new_acct env ~n:1 ~tag:"x" () in
  let db = Session.database env in
  Session.with_txn env (fun txn ->
      Session.set_field env txn a "n" (Dsl.int 5);
      Session.set_field env txn a "tag" (Dsl.str "y");
      let seen = ref [] in
      Database.iter_cluster db txn ~cls:"Acct" (fun _ payload ->
          seen := Value.to_int (Objrec.field_of_payload payload "n") :: !seen);
      Alcotest.(check (list int)) "iter_cluster" [ 5 ] !seen;
      Session.create_index env txn ~name:"by_tag" ~cls:"Acct" ~field:"tag";
      Alcotest.(check (list int)) "create_index keys the dirtied value" [ Oid.to_int a ]
        (List.map Oid.to_int (Session.index_lookup env ~name:"by_tag" (Dsl.str "y")));
      let v = Session.Volatile.copy_from_persistent env txn a in
      Alcotest.(check int) "copy_from_persistent" 5 (Value.to_int (Session.Volatile.get v "n")))

(* The wire's stream shape: two transactions open on one session, each
   writing its own object, interleaved. *)
let interleaved_transactions () =
  let env = acct_env () in
  let a = new_acct env ~n:1 () in
  let b = new_acct env ~n:10 () in
  let t1 = Session.begin_txn env in
  let t2 = Session.begin_txn env in
  Session.set_field env t1 a "n" (Dsl.int 2);
  Session.set_field env t2 b "n" (Dsl.int 20);
  Session.set_field env t1 a "n" (Dsl.int 3);
  Alcotest.(check int) "t1 sees its write" 3 (n_of env t1 a);
  Alcotest.(check int) "t2 sees its write" 20 (n_of env t2 b);
  Session.with_snapshot env (fun snap ->
      Alcotest.(check (pair int int)) "a snapshot sees neither" (1, 10)
        (n_of env snap a, n_of env snap b));
  Session.commit env t2;
  Session.with_snapshot env (fun snap ->
      Alcotest.(check (pair int int)) "then only t2's" (1, 20) (n_of env snap a, n_of env snap b));
  Alcotest.(check int) "t1 still sees its own" 3 (n_of env t1 a);
  Session.commit env t1;
  Session.with_snapshot env (fun snap ->
      Alcotest.(check (pair int int)) "then both" (3, 20) (n_of env snap a, n_of env snap b))

(* ------------------------------------------------------------------ *)
(* Seeded model test: random scripts of new/get/set/pdelete over a
   couple of dozen objects, each transaction committed or aborted,
   against a pure model; then a crash and recovery must land on the
   model's state. Scripts run up to 24 steps, so some transactions touch
   well over 8 objects and the cursor's chain grows long. Objects are
   numbered in creation order, aborted creations included. *)

module IM = Map.Make (Int)

type step = New of int | Get of int | Set of int * int | Delete of int

(* Steps mostly pick a live object, so a script revisits objects it
   touched many steps before; one in eight picks any object ever made. *)
let gen_txn prng ~objects ~live =
  List.init (1 + Prng.int prng 24) (fun _ ->
      let i =
        if live = [||] || Prng.int prng 8 = 0 then Prng.int prng objects
        else live.(Prng.int prng (Array.length live))
      in
      match Prng.int prng 12 with
      | 0 -> Delete i
      | 1 -> New (Prng.int prng 1000)
      | 2 | 3 | 4 -> Get i
      | _ -> Set (i, Prng.int prng 1000))

let model_check () =
  Seeds.with_seed "cursor.model" (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      let env = acct_env ~store:`Disk () in
      let oids = Hashtbl.create 64 in
      let committed = ref IM.empty in
      for i = 0 to 15 do
        Hashtbl.replace oids i (new_acct env ~n:i ());
        committed := IM.add i i !committed
      done;
      let read txn i =
        match n_of env txn (Hashtbl.find oids i) with
        | n -> Some n
        | exception Database.No_such_object _ -> None
      in
      let widest = ref 0 in
      for _ = 1 to 300 do
        let live = Array.of_list (List.map fst (IM.bindings !committed)) in
        let script = gen_txn prng ~objects:(Hashtbl.length oids) ~live in
        let txn = Session.begin_txn env in
        let touched = Hashtbl.create 16 and written = Hashtbl.create 16 in
        let updates () = List.assoc "objects.updates" (Session.counters env) in
        let updates_before = updates () in
        let model =
          List.fold_left
            (fun model step ->
              match step with
              | New v ->
                  let i = Hashtbl.length oids in
                  Hashtbl.replace oids i
                    (Session.pnew env txn ~cls:"Acct" ~init:[ ("n", Dsl.int v) ] ());
                  IM.add i v model
              | Get i ->
                  if IM.mem i model then Hashtbl.replace touched i ();
                  Alcotest.(check (option int)) "get" (IM.find_opt i model) (read txn i);
                  model
              | Set (i, v) when IM.mem i model ->
                  Hashtbl.replace touched i ();
                  Hashtbl.replace written i ();
                  Session.set_field env txn (Hashtbl.find oids i) "n" (Dsl.int v);
                  IM.add i v model
              | Delete i when IM.mem i model ->
                  Hashtbl.replace touched i ();
                  Session.pdelete env txn (Hashtbl.find oids i);
                  IM.remove i model
              | Set _ | Delete _ -> model)
            !committed script
        in
        widest := max !widest (Hashtbl.length touched);
        (* One update per object written and still live at commit. *)
        let expected_updates =
          if Prng.int prng 4 > 0 then begin
            Session.commit env txn;
            committed := model;
            Hashtbl.fold (fun i () n -> if IM.mem i model then n + 1 else n) written 0
          end
          else begin
            Session.abort env txn;
            0
          end
        in
        Alcotest.(check int) "object updates" expected_updates (updates () - updates_before)
      done;
      let live () =
        Session.with_snapshot env (fun txn ->
            List.filter_map
              (fun i -> Option.map (fun n -> (i, n)) (read txn i))
              (List.init (Hashtbl.length oids) Fun.id))
      in
      Alcotest.(check bool) "the scripts left live objects" true (IM.cardinal !committed > 2);
      Alcotest.(check bool) "some transaction touched over 8 objects" true (!widest > 8);
      Alcotest.(check (list (pair int int))) "live state" (IM.bindings !committed) (live ());
      let env' = Session.recover (Session.crash env) in
      define_acct env';
      Alcotest.(check (list (pair int int))) "recovered state" (IM.bindings !committed)
        (Session.with_snapshot env' (fun txn ->
             List.filter_map
               (fun i ->
                 match n_of env' txn (Hashtbl.find oids i) with
                 | n -> Some (i, n)
                 | exception Database.No_such_object _ -> None)
               (List.init (Hashtbl.length oids) Fun.id))))

let suite =
  [
    Alcotest.test_case "reads its own writes" `Quick reads_own_writes;
    Alcotest.test_case "lock-free mask sees its transaction's write" `Quick
      lock_free_mask_sees_own_write;
    Alcotest.test_case "abort leaves no trace" `Quick abort_leaves_no_trace;
    Alcotest.test_case "pdelete after an indexed write" `Quick pdelete_after_indexed_write;
    Alcotest.test_case "scans and copies see the cursor" `Quick scans_see_cursor;
    Alcotest.test_case "interleaved transactions" `Quick interleaved_transactions;
    Alcotest.test_case "model check with crash (seeded)" `Quick model_check;
  ]
