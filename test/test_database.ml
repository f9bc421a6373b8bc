(* Object-manager layer: persistent objects, clusters (transactionally
   consistent), field ops, volatile copies, and open_existing. *)

module Txn = Ode_storage.Txn
module Mem_store = Ode_storage.Mem_store
module Database = Ode_objstore.Database
module Objrec = Ode_objstore.Objrec
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module Session = Ode.Session
module Dsl = Ode.Dsl

let make () =
  let mgr = Txn.create_mgr () in
  let store = Mem_store.ops (Mem_store.create ~mgr ~name:"objects" ()) in
  let db = Database.create ~mgr ~store ~name:"d" in
  (mgr, store, db)

let person name = Objrec.make ~cls:"Person" ~fields:[ ("name", Value.Str name) ]

let pnew_get_put () =
  let mgr, _store, db = make () in
  let txn = Txn.begin_txn mgr in
  let oid = Database.pnew db txn (person "Robert") in
  Alcotest.(check string) "class" "Person" (Database.class_of db txn oid);
  Alcotest.(check string) "field" "Robert" (Value.to_str (Database.get_field db txn oid "name"));
  Database.set_field db txn oid "name" (Value.Str "Narain");
  Alcotest.(check string) "updated" "Narain" (Value.to_str (Database.get_field db txn oid "name"));
  (* Class changes are rejected. *)
  (match Database.put db txn oid (Objrec.make ~cls:"Other" ~fields:[]) with
  | _ -> Alcotest.fail "class change accepted"
  | exception Invalid_argument _ -> ());
  Txn.commit txn

let missing_objects () =
  let mgr, _store, db = make () in
  let txn = Txn.begin_txn mgr in
  let ghost = Oid.of_int 4242 in
  Alcotest.(check bool) "get_opt None" true (Database.get_opt db txn ghost = None);
  Alcotest.(check bool) "exists false" false (Database.exists db txn ghost);
  (match Database.get db txn ghost with
  | _ -> Alcotest.fail "expected No_such_object"
  | exception Database.No_such_object _ -> ());
  (match Database.pdelete db txn ghost with
  | _ -> Alcotest.fail "expected No_such_object"
  | exception Database.No_such_object _ -> ());
  Txn.commit txn

let clusters_follow_transactions () =
  let mgr, _store, db = make () in
  let txn = Txn.begin_txn mgr in
  let alice = Database.pnew db txn (person "Alice") in
  Txn.commit txn;
  (* Abort: the cluster entry must roll back. *)
  let txn = Txn.begin_txn mgr in
  let bob = Database.pnew db txn (person "Bob") in
  Alcotest.(check int) "visible inside txn" 2 (List.length (Database.cluster db ~cls:"Person"));
  Txn.abort txn;
  Alcotest.(check (list int)) "rolled back" [ Oid.to_int alice ]
    (List.map Oid.to_int (Database.cluster db ~cls:"Person"));
  ignore bob;
  (* Delete + abort restores membership. *)
  let txn = Txn.begin_txn mgr in
  Database.pdelete db txn alice;
  Alcotest.(check int) "gone inside txn" 0 (List.length (Database.cluster db ~cls:"Person"));
  Txn.abort txn;
  Alcotest.(check int) "back after abort" 1 (List.length (Database.cluster db ~cls:"Person"))

let iter_cluster_reads_objects () =
  let mgr, _store, db = make () in
  let txn = Txn.begin_txn mgr in
  let names = [ "a"; "b"; "c" ] in
  List.iter (fun n -> ignore (Database.pnew db txn (person n))) names;
  ignore (Database.pnew db txn (Objrec.make ~cls:"Pet" ~fields:[]));
  let seen = ref [] in
  Database.iter_cluster db txn ~cls:"Person" (fun _ payload ->
      seen := Value.to_str (Objrec.field_of_payload payload "name") :: !seen);
  Alcotest.(check (list string)) "persons only, oid order" names (List.rev !seen);
  Txn.commit txn

let open_existing_rebuilds () =
  let mgr, store, db = make () in
  let txn = Txn.begin_txn mgr in
  ignore (Database.pnew db txn (person "x"));
  ignore (Database.pnew db txn (Objrec.make ~cls:"Pet" ~fields:[]));
  Txn.commit txn;
  (* A second database view over the same store must rediscover the
     clusters by scanning. *)
  let db2 = Database.open_existing ~mgr ~store ~name:"d2" in
  Alcotest.(check int) "persons" 1 (List.length (Database.cluster db2 ~cls:"Person"));
  Alcotest.(check int) "pets" 1 (List.length (Database.cluster db2 ~cls:"Pet"));
  (* The views share a manager, but a transaction's cursor serves one. *)
  let oid = List.hd (Database.cluster db ~cls:"Person") in
  let txn = Txn.begin_txn mgr in
  Database.set_field db txn oid "name" (Value.Str "y");
  (match Database.get_field db2 txn oid "name" with
  | _ -> Alcotest.fail "a second database read through the first one's cursor"
  | exception Invalid_argument _ -> ());
  Txn.commit txn;
  let txn = Txn.begin_txn mgr in
  Alcotest.(check string) "committed through the first" "y"
    (Value.to_str (Database.get_field db2 txn oid "name"));
  Txn.commit txn

let volatile_copies () =
  (* The paper's *pers = *ppers / *ppers = *pers assignments. *)
  let env = Session.create () in
  Session.define_class env ~name:"Person" ~fields:[ ("name", Dsl.str "") ] ();
  let oid =
    Session.with_txn env (fun txn ->
        Session.pnew env txn ~cls:"Person" ~init:[ ("name", Dsl.str "Narain") ] ())
  in
  (* persistent -> volatile *)
  let v =
    Session.with_txn env (fun txn -> Session.Volatile.copy_from_persistent env txn oid)
  in
  Alcotest.(check string) "copied out" "Narain" (Value.to_str (Session.Volatile.get v "name"));
  Session.Volatile.set v "name" (Value.Str "Robert");
  (* volatile -> persistent *)
  let oid2 = Session.with_txn env (fun txn -> Session.Volatile.copy_to_persistent env txn v) in
  Session.with_txn env (fun txn ->
      Alcotest.(check string) "copied in" "Robert"
        (Value.to_str (Session.get_field env txn oid2 "name"));
      Alcotest.(check string) "original untouched" "Narain"
        (Value.to_str (Session.get_field env txn oid "name")))

let field_validation () =
  let env = Session.create () in
  Session.define_class env ~name:"P" ~fields:[ ("a", Dsl.int 0) ] ();
  Session.with_txn env (fun txn ->
      (match Session.pnew env txn ~cls:"P" ~init:[ ("zzz", Dsl.int 1) ] () with
      | _ -> Alcotest.fail "unknown init field accepted"
      | exception Session.Ode_error _ -> ());
      match Session.pnew env txn ~cls:"Nope" () with
      | _ -> Alcotest.fail "unknown class accepted"
      | exception Session.Ode_error _ -> ())

let inheritance_layout () =
  let env = Session.create () in
  Session.define_class env ~name:"Base" ~fields:[ ("a", Dsl.int 1) ] ();
  Session.define_class env ~name:"Derived" ~parents:[ "Base" ] ~fields:[ ("b", Dsl.int 2) ] ();
  (* Conflicting defaults across parents are rejected. *)
  Session.define_class env ~name:"Other" ~fields:[ ("a", Dsl.int 99) ] ();
  (match
     Session.define_class env ~name:"Diamond" ~parents:[ "Base"; "Other" ] ()
   with
  | _ -> Alcotest.fail "conflicting field defaults accepted"
  | exception Session.Ode_error _ -> ());
  Session.with_txn env (fun txn ->
      let d = Session.pnew env txn ~cls:"Derived" () in
      Alcotest.(check int) "inherited field present" 1
        (Value.to_int (Session.get_field env txn d "a"));
      Alcotest.(check int) "own field present" 2 (Value.to_int (Session.get_field env txn d "b")))

let suite =
  [
    Alcotest.test_case "pnew/get/put" `Quick pnew_get_put;
    Alcotest.test_case "missing objects" `Quick missing_objects;
    Alcotest.test_case "clusters follow transactions" `Quick clusters_follow_transactions;
    Alcotest.test_case "iter_cluster" `Quick iter_cluster_reads_objects;
    Alcotest.test_case "open_existing rebuilds clusters" `Quick open_existing_rebuilds;
    Alcotest.test_case "volatile copies" `Quick volatile_copies;
    Alcotest.test_case "field validation" `Quick field_validation;
    Alcotest.test_case "inheritance field layout" `Quick inheritance_layout;
  ]
