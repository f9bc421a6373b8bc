(* §8 future-work features implemented as extensions: local
   (transaction-scoped) rules, auto-activated constraints, inter-object
   triggers with qualified events, and broadcast (timed) events. *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value
module Runtime = Ode_trigger.Runtime
module Lm = Ode_storage.Lock_manager

let counter_class env fired =
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
        Dsl.trigger "T" ~perpetual:true ~event:"after Touch, after Touch"
          ~action:(fun _env _ctx -> incr fired);
      ]
    ()

let local_triggers_fire_and_die kind () =
  let env = Session.create ~store:kind () in
  let fired = ref 0 in
  counter_class env fired;
  let obj = Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"Counter" ()) in
  (* Two touches in one transaction with a local activation: fires. *)
  Session.with_txn env (fun txn ->
      Session.activate_local env txn obj ~trigger:"T" ~args:[];
      ignore (Session.invoke env txn obj "Touch" []);
      ignore (Session.invoke env txn obj "Touch" []));
  Alcotest.(check int) "fired within the transaction" 1 !fired;
  (* The activation evaporated at commit: further touches do nothing. *)
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn obj "Touch" []);
      ignore (Session.invoke env txn obj "Touch" []));
  Alcotest.(check int) "gone after commit" 1 !fired;
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "no persistent activations" 0
        (List.length (Session.active_triggers env txn obj)))

let local_triggers_take_no_trigger_locks kind () =
  let env = Session.create ~store:kind () in
  let fired = ref 0 in
  counter_class env fired;
  let obj = Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"Counter" ()) in
  Session.reset_counters env;
  Session.with_txn env (fun txn ->
      Session.activate_local env txn obj ~trigger:"T" ~args:[];
      ignore (Session.invoke env txn obj "Touch" []));
  let counters = Session.counters env in
  let get key = Option.value (List.assoc_opt key counters) ~default:0 in
  (* The trigger store is never touched: no inserts, no updates. *)
  Alcotest.(check int) "no trigger-store inserts" 0 (get "triggers.inserts");
  Alcotest.(check int) "no trigger-store updates" 0 (get "triggers.updates");
  Alcotest.(check int) "counted as local" 1 (get "rt.local_activations")

let local_triggers_span_no_transactions kind () =
  (* Unlike persistent activations, a partial match dies with the txn. *)
  let env = Session.create ~store:kind () in
  let fired = ref 0 in
  counter_class env fired;
  let obj = Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"Counter" ()) in
  Session.with_txn env (fun txn ->
      Session.activate_local env txn obj ~trigger:"T" ~args:[];
      ignore (Session.invoke env txn obj "Touch" []));
  Session.with_txn env (fun txn -> ignore (Session.invoke env txn obj "Touch" []));
  Alcotest.(check int) "no cross-transaction match" 0 !fired

let constraints_veto kind () =
  let env = Session.create ~store:kind () in
  Session.define_class env ~name:"Account"
    ~fields:[ ("balance", Dsl.float 0.0) ]
    ~methods:
      [
        ( "Withdraw",
          fun ctx args ->
            ctx.Session.set "balance"
              (Value.Float (Dsl.self_float ctx "balance" -. Dsl.nth_float args 0));
            Value.Null );
        ( "Deposit",
          fun ctx args ->
            ctx.Session.set "balance"
              (Value.Float (Dsl.self_float ctx "balance" +. Dsl.nth_float args 0));
            Value.Null );
      ]
    ~events:[ Dsl.after "Withdraw"; Dsl.after "Deposit" ]
    ~constraints:[ ("NonNegative", fun env ctx -> Dsl.obj_float env ctx "balance" >= 0.0) ]
    ();
  let account = Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"Account" ()) in
  (* The constraint was auto-activated by pnew. *)
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "auto-activated" 1
        (List.length (Session.active_triggers env txn account)));
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn account "Deposit" [ Value.Float 100.0 ]));
  let outcome =
    Session.attempt env (fun txn ->
        ignore (Session.invoke env txn account "Withdraw" [ Value.Float 150.0 ]))
  in
  Alcotest.(check bool) "overdraft vetoed" true (outcome = None);
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "balance intact" 100.0
        (Value.to_float (Session.get_field env txn account "balance")));
  (* A legal withdrawal passes, and the constraint stays armed
     (perpetual). *)
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn account "Withdraw" [ Value.Float 40.0 ]));
  let outcome =
    Session.attempt env (fun txn ->
        ignore (Session.invoke env txn account "Withdraw" [ Value.Float 100.0 ]))
  in
  Alcotest.(check bool) "still armed" true (outcome = None)

let constraints_inherited kind () =
  let env = Session.create ~store:kind () in
  Session.define_class env ~name:"Base"
    ~fields:[ ("v", Dsl.int 0) ]
    ~methods:
      [
        ( "Set",
          fun ctx args ->
            ctx.Session.set "v" (Dsl.nth args 0);
            Value.Null );
      ]
    ~events:[ Dsl.after "Set" ]
    ~constraints:[ ("Small", fun env ctx -> Value.to_int (Dsl.obj_get env ctx "v") < 10) ]
    ();
  Session.define_class env ~name:"Derived" ~parents:[ "Base" ] ();
  let d = Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"Derived" ()) in
  let outcome =
    Session.attempt env (fun txn ->
        ignore (Session.invoke env txn d "Set" [ Value.Int 99 ]))
  in
  Alcotest.(check bool) "base constraint vetoes on derived instance" true (outcome = None)

(* The paper's §8 example: "if AT&T goes below 60 and the price of gold
   stabilizes, buy 1000 shares of AT&T" — several anchoring objects. *)
let define_market env bought =
  (* Commodity first: Stock's trigger references Commodity.Stable. *)
  Session.define_class env ~name:"Commodity"
    ~fields:[ ("price", Dsl.float 0.0) ]
    ~events:[ Dsl.user_event "Stable"; Dsl.user_event "Volatile" ]
    ();
  Session.define_class env ~name:"Stock"
    ~fields:[ ("price", Dsl.float 100.0); ("position", Dsl.float 0.0) ]
    ~methods:
      [
        ( "Tick",
          fun ctx args ->
            ctx.Session.set "price" (Dsl.nth args 0);
            Value.Null );
        ( "BuyShares",
          fun ctx args ->
            ctx.Session.set "position"
              (Value.Float (Dsl.self_float ctx "position" +. Dsl.nth_float args 0));
            Value.Null );
      ]
    ~events:[ Dsl.user_event "Drop" ]
    ~masks:[ ("Below60", fun env ctx -> Dsl.obj_float env ctx "price" < 60.0) ]
    ~triggers:
      [
        Dsl.trigger "BuyTheDip" ~event:"relative(Drop & Below60, Commodity.Stable)"
          ~action:(fun env ctx ->
            incr bought;
            ignore (Dsl.obj_invoke env ctx "BuyShares" [ Value.Float 1000.0 ]));
      ]
    ()

let inter_object_trigger kind () =
  let env = Session.create ~store:kind () in
  let bought = ref 0 in
  define_market env bought;
  let att, gold =
    Session.with_txn env (fun txn ->
        let att = Session.pnew env txn ~cls:"Stock" () in
        let gold = Session.pnew env txn ~cls:"Commodity" () in
        ignore (Session.activate env txn att ~trigger:"BuyTheDip" ~args:[] ~anchors:[ gold ]);
        (att, gold))
  in
  (* Gold stabilizing before the dip must not fire. *)
  Session.with_txn env (fun txn -> Session.post_event env txn gold "Stable");
  Alcotest.(check int) "not yet" 0 !bought;
  (* AT&T drops but stays above 60: mask false. *)
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn att "Tick" [ Value.Float 80.0 ]);
      Session.post_event env txn att "Drop");
  Session.with_txn env (fun txn -> Session.post_event env txn gold "Stable");
  Alcotest.(check int) "above 60: masked out" 0 !bought;
  (* Below 60, then gold stabilizes: fire. *)
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn att "Tick" [ Value.Float 59.0 ]);
      Session.post_event env txn att "Drop");
  Session.with_txn env (fun txn -> Session.post_event env txn gold "Volatile");
  Alcotest.(check int) "gold volatile: still waiting" 0 !bought;
  Session.with_txn env (fun txn -> Session.post_event env txn gold "Stable");
  Alcotest.(check int) "fired" 1 !bought;
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "bought 1000 shares of the anchor" 1000.0
        (Value.to_float (Session.get_field env txn att "position")));
  (* Once-only: deactivation removed the index entries for BOTH anchors. *)
  Session.with_txn env (fun txn -> Session.post_event env txn gold "Stable");
  Alcotest.(check int) "deactivated everywhere" 1 !bought

let inter_object_survives_recovery () =
  (* Anchor index entries are rebuilt from the persistent TriggerState. *)
  let env = Session.create ~store:`Disk () in
  let bought = ref 0 in
  define_market env bought;
  let att, gold =
    Session.with_txn env (fun txn ->
        let att = Session.pnew env txn ~cls:"Stock" () in
        let gold = Session.pnew env txn ~cls:"Commodity" () in
        ignore (Session.activate env txn att ~trigger:"BuyTheDip" ~args:[] ~anchors:[ gold ]);
        (att, gold))
  in
  Session.with_txn env (fun txn ->
      ignore (Session.invoke env txn att "Tick" [ Value.Float 55.0 ]);
      Session.post_event env txn att "Drop");
  let env = Session.recover (Session.crash env) in
  let bought2 = ref 0 in
  define_market env bought2;
  Session.with_txn env (fun txn -> Session.post_event env txn gold "Stable");
  Alcotest.(check int) "anchor routing survived the crash" 1 !bought2

let broadcast_timed_triggers kind () =
  let env = Session.create ~store:kind () in
  let rang = ref 0 in
  Session.define_class env ~name:"Alarm"
    ~fields:[ ("armed", Dsl.bool true) ]
    ~events:[ Dsl.user_event "tick" ]
    ~triggers:
      [
        Dsl.trigger "RingAfter3" ~event:"^ tick, tick, tick"
          ~action:(fun _env _ctx -> incr rang);
      ]
    ();
  Session.define_class env ~name:"Unrelated" ~fields:[ ("x", Dsl.int 0) ] ();
  let _a1, _a2 =
    Session.with_txn env (fun txn ->
        let a1 = Session.pnew env txn ~cls:"Alarm" () in
        let a2 = Session.pnew env txn ~cls:"Alarm" () in
        ignore (Session.pnew env txn ~cls:"Unrelated" ());
        ignore (Session.activate env txn a1 ~trigger:"RingAfter3" ~args:[]);
        (a1, a2))
  in
  (* Only a1 is activated; a2 receives the events but has no activation. *)
  for _ = 1 to 2 do
    Session.with_txn env (fun txn -> Session.broadcast_event env txn "tick")
  done;
  Alcotest.(check int) "two ticks: silent" 0 !rang;
  Session.with_txn env (fun txn -> Session.broadcast_event env txn "tick");
  Alcotest.(check int) "rings on the third tick" 1 !rang

let qualified_unknown_class_rejected kind () =
  let env = Session.create ~store:kind () in
  match
    Session.define_class env ~name:"W"
      ~events:[ Dsl.user_event "e" ]
      ~triggers:[ Dsl.trigger "T" ~event:"Nowhere.e" ~action:(fun _ _ -> ()) ]
      ()
  with
  | () -> Alcotest.fail "unknown qualifier accepted"
  | exception Session.Ode_error _ -> ()

let both_kinds name f =
  [
    Alcotest.test_case (name ^ " (mem)") `Quick (f `Mem);
    Alcotest.test_case (name ^ " (disk)") `Quick (f `Disk);
  ]

let suite =
  List.concat
    [
      both_kinds "local triggers fire and die with the txn" local_triggers_fire_and_die;
      both_kinds "local triggers take no trigger-store locks" local_triggers_take_no_trigger_locks;
      both_kinds "local triggers don't span transactions" local_triggers_span_no_transactions;
      both_kinds "constraints veto violating transactions" constraints_veto;
      both_kinds "constraints are inherited" constraints_inherited;
      both_kinds "inter-object trigger (AT&T/gold)" inter_object_trigger;
      [ Alcotest.test_case "inter-object anchors survive recovery" `Quick inter_object_survives_recovery ];
      both_kinds "broadcast (timed) triggers" broadcast_timed_triggers;
      both_kinds "unknown qualifier rejected" qualified_unknown_class_rejected;
    ]

(* ------------------------------------------------------------------ *)
(* Monitored classes (§8): triggers on volatile objects. *)

let monitored_class kind () =
  let env = Session.create ~store:kind () in
  let fired = ref 0 in
  counter_class env fired;
  let v = Session.Volatile.vnew env ~cls:"Counter" () in
  let rang = ref [] in
  Session.Volatile.attach env v ~event:"after Touch, after Touch"
    ~masks:[]
    ~action:(fun vobj ->
      rang := Value.to_int (Session.Volatile.get vobj "n") :: !rang)
    ();
  ignore (Session.Volatile.invoke env v "Touch" []);
  Alcotest.(check (list int)) "one touch: silent" [] !rang;
  ignore (Session.Volatile.invoke env v "Touch" []);
  Alcotest.(check (list int)) "fires with the object's state visible" [ 2 ] !rang;
  (* Perpetual, unanchored: every further touch closes another pair, so
     touches 3 and 4 fire too. *)
  ignore (Session.Volatile.invoke env v "Touch" []);
  ignore (Session.Volatile.invoke env v "Touch" []);
  Alcotest.(check int) "perpetual, every subsequent pair" 3 (List.length !rang);
  (* Never any persistent trigger machinery. *)
  Alcotest.(check int) "no runtime posts" 0 (List.assoc "rt.posts" (Session.counters env))

let monitored_with_masks kind () =
  let env = Session.create ~store:kind () in
  let fired = ref 0 in
  counter_class env fired;
  let v = Session.Volatile.vnew env ~cls:"Counter" () in
  let alerts = ref 0 in
  Session.Volatile.attach env v ~event:"after Touch & Big"
    ~masks:[ ("Big", fun vobj -> Value.to_int (Session.Volatile.get vobj "n") > 2) ]
    ~action:(fun _ -> incr alerts)
    ~perpetual:false ();
  ignore (Session.Volatile.invoke env v "Touch" []);
  ignore (Session.Volatile.invoke env v "Touch" []);
  Alcotest.(check int) "mask false: silent" 0 !alerts;
  ignore (Session.Volatile.invoke env v "Touch" []);
  Alcotest.(check int) "mask true: fires" 1 !alerts;
  (* once-only *)
  ignore (Session.Volatile.invoke env v "Touch" []);
  Alcotest.(check int) "deactivated" 1 !alerts

let monitored_user_events kind () =
  let env = Session.create ~store:kind () in
  Session.define_class env ~name:"Feed"
    ~fields:[ ("last", Dsl.float 0.0) ]
    ~methods:
      [
        ( "Tick",
          fun ctx _ ->
            ctx.Session.post_self "Spike";
            Dsl.null );
      ]
    ~events:[ Dsl.user_event "Spike" ]
    ();
  let v = Session.Volatile.vnew env ~cls:"Feed" () in
  let spikes = ref 0 in
  Session.Volatile.attach env v ~event:"Spike, Spike" ~action:(fun _ -> incr spikes) ();
  (* [post_self] on a volatile object routes the user event to its
     monitors; the perpetual, unanchored pair closes on spikes 2 and 3. *)
  for _ = 1 to 3 do
    ignore (Session.Volatile.invoke env v "Tick" [])
  done;
  Alcotest.(check int) "Spike, Spike fired twice over three spikes" 2 !spikes

let suite =
  suite
  @ List.concat
      [
        both_kinds "monitored volatile objects" monitored_class;
        both_kinds "monitored with masks" monitored_with_masks;
        both_kinds "monitored user events compile" monitored_user_events;
      ]
