(* Coupling modes and transaction-related trigger functionality (§4.2,
   §5.5): end/deferred, dependent, !dependent, phoenix, transaction
   events, and trigger-state rollback across aborts. *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value
module Coupling = Ode_trigger.Coupling
module Txn = Ode_storage.Txn

(* A probe records every action run: (tag, txn id, was it a system txn). *)
type probe = { mutable runs : (string * int * bool) list }

let runs probe = List.length probe.runs

let make_env kind =
  let env = Session.create ~store:kind () in
  let probe = { runs = [] } in
  (env, probe)

(* A Counter class: Touch bumps a field; Reset is a second method used by
   the anchored-death test. [txn_events] controls whether the class
   declares interest in before tcomplete / before tabort. *)
let define_counter env probe ~coupling ~event ?(perpetual = true) ?(txn_events = false) () =
  let touch ctx _args =
    ctx.Session.set "n" (Value.Int (Dsl.self_int ctx "n" + 1));
    Value.Null
  in
  let reset ctx _args =
    ctx.Session.set "n" (Value.Int 0);
    Value.Null
  in
  let record _env ctx =
    let txn = ctx.Ode_trigger.Trigger_def.txn in
    probe.runs <- ("T", txn.Txn.id, txn.Txn.system) :: probe.runs
  in
  let events =
    [ Dsl.after "Touch"; Dsl.after "Reset" ]
    @ if txn_events then [ Dsl.before_tcomplete; Dsl.before_tabort ] else []
  in
  Session.define_class env ~name:"Counter"
    ~fields:[ ("n", Dsl.int 0) ]
    ~methods:[ ("Touch", touch); ("Reset", reset) ]
    ~events
    ~triggers:[ Dsl.trigger "T" ~perpetual ~coupling ~event ~action:record ]
    ()

let new_counter env =
  Session.with_txn env (fun txn ->
      let obj = Session.pnew env txn ~cls:"Counter" () in
      ignore (Session.activate env txn obj ~trigger:"T" ~args:[]);
      obj)

let touch env obj = Session.with_txn env (fun txn -> ignore (Session.invoke env txn obj "Touch" []))

let touch_and_abort env obj =
  match
    Session.attempt env (fun txn ->
        ignore (Session.invoke env txn obj "Touch" []);
        Session.tabort ())
  with
  | None -> ()
  | Some () -> Alcotest.fail "expected abort"

let end_coupling kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.End ~event:"after Touch" ();
  let obj = new_counter env in
  (* Deferred to commit, but inside the same (non-system) transaction. *)
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn obj "Touch" []);
      Alcotest.(check int) "not yet run mid-transaction" 0 (runs probe));
  Alcotest.(check int) "ran at commit" 1 (runs probe);
  (match probe.runs with
  | [ (_, _, system) ] -> Alcotest.(check bool) "in the user transaction" false system
  | _ -> Alcotest.fail "expected one run");
  touch_and_abort env obj;
  Alcotest.(check int) "end work discarded on abort" 1 (runs probe)

let dependent_coupling kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Dependent ~event:"after Touch" ();
  let obj = new_counter env in
  touch env obj;
  Alcotest.(check int) "ran after commit" 1 (runs probe);
  (match probe.runs with
  | [ (_, _, system) ] -> Alcotest.(check bool) "in a system transaction" true system
  | _ -> Alcotest.fail "expected one run");
  touch_and_abort env obj;
  Alcotest.(check int) "dependent work discarded on abort" 1 (runs probe)

let independent_coupling kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Independent ~event:"after Touch" ();
  let obj = new_counter env in
  touch env obj;
  Alcotest.(check int) "ran after commit" 1 (runs probe);
  touch_and_abort env obj;
  Alcotest.(check int) "ALSO ran for the aborted txn" 2 (runs probe);
  match probe.runs with
  | (_, _, sys2) :: (_, _, sys1) :: _ ->
      Alcotest.(check bool) "both in system transactions" true (sys1 && sys2)
  | _ -> Alcotest.fail "expected two runs"

let phoenix_coupling kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Phoenix ~event:"after Touch" ();
  let obj = new_counter env in
  touch env obj;
  Alcotest.(check int) "phoenix drained after commit" 1 (runs probe);
  Alcotest.(check int) "no backlog" 0 (Ode_trigger.Runtime.phoenix_backlog (Session.runtime env));
  touch_and_abort env obj;
  Alcotest.(check int) "no phoenix for aborted txn" 1 (runs probe)

let before_tcomplete_fires kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Immediate ~event:"before tcomplete"
    ~txn_events:true ();
  let obj = new_counter env in
  (* The creating transaction accessed the object too, so it fired once. *)
  Alcotest.(check int) "fired at creation commit" 1 (runs probe);
  touch env obj;
  touch env obj;
  Alcotest.(check int) "fired per committing transaction" 3 (runs probe);
  (* A read-only access also lands the object on the transaction-event
     list. *)
  Session.with_txn env (fun txn -> ignore (Session.get_field env txn obj "n"));
  Alcotest.(check int) "fired for read-only access too" 4 (runs probe)

let before_tabort_fires kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Independent ~event:"before tabort"
    ~txn_events:true ();
  let obj = new_counter env in
  touch env obj;
  Alcotest.(check int) "no fire on commits" 0 (runs probe);
  touch_and_abort env obj;
  (* The !dependent action queued by before-tabort posting survives the
     roll-back. *)
  Alcotest.(check int) "fired on explicit abort" 1 (runs probe)

let trigger_state_rolls_back kind () =
  (* T8: a two-step composite advanced inside an aborted transaction must
     rewind (§5.5: "Event roll-back is handled using standard transaction
     roll-back of the triggers' states"). *)
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Immediate ~perpetual:false
    ~event:"^ after Touch, after Touch" ();
  let obj = new_counter env in
  touch_and_abort env obj;
  touch env obj;
  Alcotest.(check int) "not fired: state rolled back" 0 (runs probe);
  touch env obj;
  Alcotest.(check int) "fires after two committed touches" 1 (runs probe)

let global_composite_events kind () =
  (* Constituent events spanning several application transactions — the
     global composite events Sentinel lacks (§7). *)
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Immediate ~perpetual:false
    ~event:"after Touch, after Touch, after Touch" ();
  let obj = new_counter env in
  touch env obj;
  touch env obj;
  Alcotest.(check int) "two of three" 0 (runs probe);
  touch env obj;
  Alcotest.(check int) "completed across three transactions" 1 (runs probe)

let anchored_trigger_dies kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Immediate ~perpetual:false
    ~event:"^ after Reset, after Touch" ();
  let obj = new_counter env in
  (* The anchored machine expects Reset first; a Touch kills it. *)
  touch env obj;
  Session.with_txn env (fun txn -> ignore (Session.invoke env txn obj "Reset" []));
  touch env obj;
  Alcotest.(check int) "anchored machine died, never fires" 0 (runs probe);
  (* Sanity: a fresh activation seeing Reset,Touch does fire. *)
  Session.with_txn env (fun txn ->
      ignore (Session.activate env txn obj ~trigger:"T" ~args:[]));
  Session.with_txn env (fun txn -> ignore (Session.invoke env txn obj "Reset" []));
  touch env obj;
  Alcotest.(check int) "fresh activation fires" 1 (runs probe)

let detached_actions_can_cascade kind () =
  (* A dependent action that re-invokes a method runs with full trigger
     orchestration in its own system transaction. *)
  let env = Session.create ~store:kind () in
  let order = ref [] in
  let retouch env ctx =
    order := "action" :: !order;
    ignore (Dsl.obj_invoke env ctx "Touch" [])
  in
  Session.define_class env ~name:"Counter"
    ~fields:[ ("n", Dsl.int 0) ]
    ~methods:
      [
        ( "Touch",
          fun ctx _args ->
            ctx.Session.set "n" (Value.Int (Dsl.self_int ctx "n" + 1));
            Value.Null );
      ]
    ~events:[ Dsl.after "Touch" ]
    ~triggers:
      [
        Dsl.trigger "T" ~perpetual:false ~coupling:Coupling.Dependent ~event:"after Touch"
          ~action:retouch;
      ]
    ();
  let obj =
    Session.with_txn env (fun txn ->
        let obj = Session.pnew env txn ~cls:"Counter" () in
        ignore (Session.activate env txn obj ~trigger:"T" ~args:[]);
        obj)
  in
  Session.with_txn env (fun txn -> ignore (Session.invoke env txn obj "Touch" []));
  Alcotest.(check (list string)) "action ran once (once-only)" [ "action" ] !order;
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "both touches persisted" 2
        (Value.to_int (Session.get_field env txn obj "n")))

let arity_and_lookup_errors kind () =
  let env, probe = make_env kind in
  define_counter env probe ~coupling:Coupling.Immediate ~event:"after Touch" ();
  Session.with_txn env (fun txn ->
      let obj = Session.pnew env txn ~cls:"Counter" () in
      (match Session.activate env txn obj ~trigger:"Nope" ~args:[] with
      | _ -> Alcotest.fail "unknown trigger accepted"
      | exception Session.Ode_error _ -> ());
      match Session.activate env txn obj ~trigger:"T" ~args:[ Value.Int 1 ] with
      | _ -> Alcotest.fail "wrong arity accepted"
      | exception Ode_trigger.Runtime.Trigger_error _ -> ())

(* A committed transaction's phoenix drain must not trip over another
   open transaction's X locks on TriggerState rows (it used to raise
   Would_block from Session.commit after the commit had happened), and
   the open transaction's own phoenix entry must drain at its commit. *)
let phoenix_drain_beside_open_txn kind () =
  let env, probe = make_env kind in
  let bump ctx _args =
    ctx.Session.set "n" (Value.Int (Dsl.self_int ctx "n" + 1));
    Value.Null
  in
  let record _env ctx =
    let txn = ctx.Ode_trigger.Trigger_def.txn in
    probe.runs <- ("P", txn.Txn.id, txn.Txn.system) :: probe.runs
  in
  Session.define_class env ~name:"Counter"
    ~fields:[ ("n", Dsl.int 0) ]
    ~methods:[ ("Touch", bump) ]
    ~events:[ Dsl.after "Touch" ]
    ~triggers:
      [
        Dsl.trigger "P" ~perpetual:true ~coupling:Coupling.Phoenix ~event:"after Touch" ~action:record;
        Dsl.trigger "I" ~perpetual:true ~coupling:Coupling.Immediate
          ~event:"after Touch, after Touch" ~action:(fun _ _ -> ());
      ]
    ();
  let counter () =
    Session.with_txn env (fun txn ->
        let obj = Session.pnew env txn ~cls:"Counter" () in
        ignore (Session.activate env txn obj ~trigger:"P" ~args:[]);
        ignore (Session.activate env txn obj ~trigger:"I" ~args:[]);
        obj)
  in
  let a = counter () in
  let b = counter () in
  let txn_a = Session.begin_txn env in
  ignore (Session.invoke env txn_a a "Touch" []);
  (match touch env b with
  | () -> ()
  | exception Ode_storage.Store.Would_block _ -> Alcotest.fail "committed txn raised Would_block");
  Alcotest.(check int) "B's phoenix action ran once" 1 (runs probe);
  Session.commit env txn_a;
  Alcotest.(check int) "A's phoenix action ran at A's commit" 2 (runs probe);
  Alcotest.(check int) "no backlog" 0 (Ode_trigger.Runtime.phoenix_backlog (Session.runtime env));
  Session.drain_phoenix env;
  Alcotest.(check int) "each action ran exactly once" 2 (runs probe)

let both_kinds name f =
  [
    Alcotest.test_case (name ^ " (mem)") `Quick (f `Mem);
    Alcotest.test_case (name ^ " (disk)") `Quick (f `Disk);
  ]

let suite =
  List.concat
    [
      both_kinds "end (deferred) coupling" end_coupling;
      both_kinds "dependent coupling" dependent_coupling;
      both_kinds "!dependent coupling" independent_coupling;
      both_kinds "phoenix coupling" phoenix_coupling;
      both_kinds "phoenix drain beside an open txn" phoenix_drain_beside_open_txn;
      both_kinds "before tcomplete" before_tcomplete_fires;
      both_kinds "before tabort" before_tabort_fires;
      both_kinds "trigger state rolls back on abort" trigger_state_rolls_back;
      both_kinds "global composite events" global_composite_events;
      both_kinds "anchored triggers can die" anchored_trigger_dies;
      both_kinds "detached actions cascade" detached_actions_can_cascade;
      both_kinds "activation errors" arity_and_lookup_errors;
    ]
