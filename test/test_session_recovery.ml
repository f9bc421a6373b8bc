(* Crash recovery at the integrated level: objects, clusters, trigger
   activations, mid-composite FSM state, and the phoenix queue all survive
   a crash; classes are re-defined on restart (FSMs recompile, §5.1.3). *)

module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value
module Coupling = Ode_trigger.Coupling
module Runtime = Ode_trigger.Runtime

let objects_and_triggers_survive kind () =
  let env = Session.create ~store:kind () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        let merchant = Credit_card.new_merchant env txn ~name:"M" in
        let card = Credit_card.new_card env txn ~customer ~limit:1000.0 () in
        ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
        (card, merchant))
  in
  Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:300.0);
  Session.checkpoint env;
  Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:100.0);
  (* Crash; recover; re-define classes. *)
  let env = Session.recover (Session.crash env) in
  Credit_card.define_all env;
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "balance recovered" 400.0 (Credit_card.balance env txn card);
      Alcotest.(check int) "activation recovered" 1
        (List.length (Session.active_triggers env txn card)));
  (* The recovered trigger still enforces the limit. *)
  let outcome =
    Session.attempt env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:900.0)
  in
  Alcotest.(check bool) "recovered trigger still fires" true (outcome = None);
  (* Clusters were rebuilt by the rescan. *)
  Alcotest.(check int) "CredCard cluster" 1 (List.length (Session.cluster env ~cls:"CredCard"));
  Alcotest.(check int) "Merchant cluster" 1 (List.length (Session.cluster env ~cls:"Merchant"))

let mid_composite_state_survives kind () =
  (* Arm AutoRaiseLimit past its masked Buy, crash, then PayBill in the
     recovered database: the persistent statenum must carry the partial
     match across the crash. *)
  let env = Session.create ~store:kind () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        let merchant = Credit_card.new_merchant env txn ~name:"M" in
        let card = Credit_card.new_card env txn ~customer ~limit:1000.0 () in
        ignore (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 500.0 ]);
        (card, merchant))
  in
  Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:900.0);
  let env = Session.recover (Session.crash env) in
  Credit_card.define_all env;
  Session.with_txn env (fun txn -> Credit_card.pay_bill env txn card ~amount:100.0);
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "composite completed across the crash" 1500.0
        (Credit_card.limit env txn card))

let unflushed_work_is_lost kind () =
  let env = Session.create ~store:kind () in
  Credit_card.define_all env;
  let card =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        Credit_card.new_card env txn ~customer ~limit:100.0 ())
  in
  (* Mutate inside a transaction that never commits, then crash. *)
  let txn = Session.begin_txn env in
  Session.set_field env txn card "currBal" (Value.Float 55.0);
  let env = Session.recover (Session.crash env) in
  Credit_card.define_all env;
  Session.with_txn env (fun txn2 ->
      Alcotest.(check (float 1e-9)) "uncommitted write lost" 0.0
        (Credit_card.balance env txn2 card))

let phoenix_survives_crash kind () =
  (* Build a runtime directly so a committed phoenix entry exists without
     having been drained (a crash in the window between commit and drain),
     then recover and drain. *)
  let module Txn = Ode_storage.Txn in
  let module Store = Ode_storage.Store in
  let module Trigger_state = Ode_trigger.Trigger_state in
  let mgr = Txn.create_mgr () in
  let store =
    match kind with
    | `Disk -> Ode_storage.Disk_store.ops (Ode_storage.Disk_store.create ~mgr ~name:"trig" ())
    | `Mem -> Ode_storage.Mem_store.ops (Ode_storage.Mem_store.create ~mgr ~name:"trig" ())
  in
  let intern = Ode_event.Intern.create () in
  let fired = ref 0 in
  let descriptor =
    let event = Ode_event.Intern.id intern ~cls:"C" (Ode_event.Intern.User "e") in
    let fsm = Ode_event.Compile.compile ~alphabet:[ event ] (Ode_event.Ast.Basic event) in
    {
      Ode_trigger.Trigger_def.d_cls = "C";
      d_parents = [];
      d_alphabet = [ event ];
      d_txn_events = [];
      d_triggers =
        [|
          {
            Ode_trigger.Trigger_def.t_name = "T";
            t_index = 0;
            t_fsm = fsm;
            t_masks = [];
            t_action = (fun _ctx -> incr fired);
            t_perpetual = true;
            t_coupling = Coupling.Phoenix;
            t_params = [];
            t_expr = Ode_event.Ast.Basic event;
            t_anchored = false;
            t_source = "e";
            t_posts = [];
            t_reads = [];
            t_writes = [];
            t_pure = true;
          };
        |];
    }
  in
  let rt = Runtime.create ~mgr ~intern ~store () in
  Runtime.register_class rt descriptor;
  (* Enqueue a phoenix entry in a committed transaction WITHOUT the
     after-commit drain (plain Txn.commit, as if we crashed first). *)
  let txn = Txn.begin_txn mgr in
  let entry =
    Trigger_state.encode_phoenix
      { Trigger_state.ph_cls = "C"; ph_triggernum = 0; ph_obj = Ode_objstore.Oid.of_int 1; ph_args = []; ph_ev_args = [] }
  in
  ignore (store.Store.insert txn entry);
  Txn.commit txn;
  Alcotest.(check int) "backlog before crash" 1 (Runtime.phoenix_backlog rt);
  (* Crash and recover the store. *)
  let wal_bytes = Ode_storage.Wal.durable_bytes store.Store.wal in
  (match kind with `Disk -> () | `Mem -> ());
  let mgr2 = Txn.create_mgr () in
  let store2 =
    match kind with
    | `Disk ->
        Ode_storage.Disk_store.ops
          (Ode_storage.Recovery.recover_disk ~mgr:mgr2 ~name:"trig" ~wal_bytes ())
    | `Mem ->
        Ode_storage.Mem_store.ops
          (Ode_storage.Recovery.recover_mem ~mgr:mgr2 ~name:"trig" ~wal_bytes ())
  in
  let intern2 = Ode_event.Intern.create () in
  (* Re-intern in the same order so ids line up, as a restarted program
     re-running the same class definitions would. *)
  ignore (Ode_event.Intern.id intern2 ~cls:"C" (Ode_event.Intern.User "e"));
  let rt2 = Runtime.create ~mgr:mgr2 ~intern:intern2 ~store:store2 () in
  Runtime.register_class rt2 descriptor;
  let txn = Txn.begin_txn ~system:true mgr2 in
  Runtime.rebuild_index rt2 txn;
  Txn.commit txn;
  Alcotest.(check int) "backlog recovered" 1 (Runtime.phoenix_backlog rt2);
  Runtime.drain_phoenix rt2;
  Alcotest.(check int) "phoenix action finally ran" 1 !fired;
  Alcotest.(check int) "backlog empty" 0 (Runtime.phoenix_backlog rt2)

let recover_twice kind () =
  let env = Session.create ~store:kind () in
  Credit_card.define_all env;
  let card =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        Credit_card.new_card env txn ~customer ~limit:10.0 ())
  in
  let env = Session.recover (Session.crash env) in
  Credit_card.define_all env;
  let env = Session.recover (Session.crash env) in
  Credit_card.define_all env;
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "still there after two crashes" 10.0
        (Credit_card.limit env txn card))

(* A recovered disk session keeps the crashed one's buffer pool: data
   spanning more pages than a 4-frame pool (but fewer than the default
   64) must still evict after recovery. *)
let recovery_keeps_pool_config () =
  let env = Session.create ~store:`Disk ~page_size:512 ~pool_capacity:4 () in
  Credit_card.define_all env;
  let cards =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        List.init 60 (fun i ->
            Credit_card.new_card env txn ~customer ~limit:(float_of_int (100 + i)) ()))
  in
  let pages = List.assoc "objects.pages" (Session.counters env) in
  Alcotest.(check bool) "data spans more pages than the pool" true (pages > 4 && pages < 64);
  let env = Session.recover (Session.crash env) in
  Credit_card.define_all env;
  Session.with_txn env (fun txn ->
      List.iteri
        (fun i card ->
          Alcotest.(check (float 1e-9)) "limit recovered" (float_of_int (100 + i))
            (Credit_card.limit env txn card))
        cards);
  Alcotest.(check bool) "recovered pool evicts" true
    (List.assoc "objects.pool_evictions" (Session.counters env) > 0)

(* Every setting off its default: recovery with no arguments, twice in a
   row and once through an image reassembled from its parts, must keep
   all of them, so the capacity machinery keeps running afterwards. *)
let recovery_keeps_settings kind () =
  let durability = Ode_storage.Commit_pipeline.Group { max_batch = 4; max_delay_ticks = 16 } in
  let env =
    Session.create ~store:kind ~page_size:1024 ~pool_capacity:16 ~io_spin:1 ~flush_spin:1
      ~flush_sleep:1 ~durability ~shard:(1, 3) ~engine:Runtime.reference_config
      ~wal_segment_bytes:4096 ~ckpt_full_every:4 ~auto_checkpoint_bytes:16384 ()
  in
  let want = Session.settings env in
  let fields (s : Ode_storage.Settings.t) =
    [ s.page_size; s.pool_capacity; s.io_spin; s.flush_spin; s.flush_sleep;
      s.wal_segment_bytes; s.ckpt_full_every; s.auto_checkpoint_bytes ]
  in
  let d = Ode_storage.Settings.default in
  Alcotest.(check bool) "no setting at its default" true
    (List.for_all2 ( <> ) (fields want.Session.storage) (fields d)
    && want.Session.storage.durability <> d.durability
    && want.Session.engine <> Runtime.default_config
    && want.Session.shard <> (0, 1));
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        let merchant = Credit_card.new_merchant env txn ~name:"M" in
        let card = Credit_card.new_card env txn ~customer ~limit:1e9 () in
        ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
        (card, merchant))
  in
  let buys = ref 0 in
  let run env =
    for _ = 1 to 200 do
      Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:1.0);
      incr buys
    done;
    Session.sync env
  in
  let keeps_running what env =
    Alcotest.(check bool) (what ^ ": same settings") true (Session.settings env = want);
    run env;
    let counter name = List.assoc ("objects." ^ name) (Session.counters env) in
    Alcotest.(check bool) (what ^ ": seals segments") true (counter "segments_sealed" > 0);
    Alcotest.(check bool) (what ^ ": takes auto-checkpoints") true (counter "auto_ckpts" > 0);
    Alcotest.(check bool) (what ^ ": writes deltas") true (counter "ckpt_deltas" > 0);
    Session.with_txn env (fun txn ->
        Alcotest.(check (float 1e-9)) (what ^ ": balance") (float_of_int !buys)
          (Credit_card.balance env txn card))
  in
  let recover image =
    let env = Session.recover image in
    Credit_card.define_all env;
    env
  in
  keeps_running "created" env;
  let env = recover (Session.crash env) in
  keeps_running "recovered" env;
  let env = recover (Session.crash env) in
  keeps_running "recovered twice" env;
  let image = Session.crash env in
  Alcotest.(check bool) "image keeps the settings" true (Session.image_settings image = want);
  keeps_running "recovered from image parts"
    (recover (Session.image_of_wals (Session.image_settings image) (Session.image_wals image)))

(* A Counter with an immediate trigger [T] and a phoenix trigger [P]
   whose action aborts until [allow] is set, so its queue entry stays
   committed and undrained across a crash. *)
let define_phoenix_counter env ~allow ~fired =
  let touch ctx _args =
    ctx.Session.set "n" (Value.Int (Dsl.self_int ctx "n" + 1));
    Value.Null
  in
  Session.define_class env ~name:"Counter"
    ~fields:[ ("n", Dsl.int 0) ]
    ~methods:[ ("Touch", touch) ]
    ~events:[ Dsl.after "Touch" ]
    ~triggers:
      [
        Dsl.trigger "T" ~perpetual:true ~coupling:Coupling.Immediate ~event:"after Touch, after Touch"
          ~action:(fun _ _ -> ());
        Dsl.trigger "P" ~perpetual:true ~coupling:Coupling.Phoenix ~event:"after Touch"
          ~action:(fun _ _ -> if !allow then incr fired else Session.tabort ());
      ]
    ()

(* TriggerState rows anchored at [oid] in the recovered trigger store. *)
let rows_for env oid =
  let _, trig = Session.stores env in
  Session.with_snapshot env (fun txn ->
      let n = ref 0 in
      trig.Ode_storage.Store.iter txn (fun _ payload ->
          match Ode_trigger.Trigger_state.decode payload with
          | Ode_trigger.Trigger_state.State st when st.Ode_trigger.Trigger_state.trigobj = oid -> incr n
          | _ -> ());
      !n)

(* A crash image whose trigger WAL holds an activation for an object the
   object WAL never made durable (the crash fell between the two stores'
   commit flushes): recovery deletes the dangling row, keeps the rest. *)
let dangling_row_pruned kind () =
  let allow = ref false and fired = ref 0 in
  let env = Session.create ~store:kind () in
  define_phoenix_counter env ~allow ~fired;
  let a =
    Session.with_txn env (fun txn ->
        let a = Session.pnew env txn ~cls:"Counter" () in
        ignore (Session.activate env txn a ~trigger:"T" ~args:[]);
        ignore (Session.activate env txn a ~trigger:"P" ~args:[]);
        a)
  in
  Session.with_txn env (fun txn -> ignore (Session.invoke env txn a "Touch" []));
  Alcotest.(check int) "phoenix entry queued" 1 (Runtime.phoenix_backlog (Session.runtime env));
  let obj_store, trig_store = Session.stores env in
  let obj_wal = Ode_storage.Wal.durable_bytes obj_store.Ode_storage.Store.wal in
  let b =
    Session.with_txn env (fun txn ->
        let b = Session.pnew env txn ~cls:"Counter" () in
        ignore (Session.activate env txn b ~trigger:"T" ~args:[]);
        b)
  in
  let trig_wal = Ode_storage.Wal.durable_bytes trig_store.Ode_storage.Store.wal in
  ignore (Session.crash env);
  let recover image =
    let env = Session.recover image in
    define_phoenix_counter env ~allow ~fired;
    env
  in
  let env = recover (Session.image_of_wals (Session.settings env) (obj_wal, trig_wal)) in
  Alcotest.(check int) "dangling row deleted" 0 (rows_for env b);
  Alcotest.(check int) "surviving rows kept" 2 (rows_for env a);
  Session.with_txn env (fun txn ->
      Alcotest.(check bool) "object never durable" false (Session.exists env txn b);
      Alcotest.(check int) "no activation for the lost object" 0
        (List.length (Session.active_triggers env txn b));
      Alcotest.(check int) "surviving activations" 2 (List.length (Session.active_triggers env txn a)));
  Alcotest.(check int) "phoenix entry survives" 1 (Runtime.phoenix_backlog (Session.runtime env));
  allow := true;
  Session.drain_phoenix env;
  Alcotest.(check int) "phoenix drained once" 1 !fired;
  Alcotest.(check int) "backlog empty" 0 (Runtime.phoenix_backlog (Session.runtime env));
  let env = recover (Session.crash env) in
  Alcotest.(check int) "still no dangling row" 0 (rows_for env b);
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "still no activation" 0 (List.length (Session.active_triggers env txn b)));
  Session.drain_phoenix env;
  Alcotest.(check int) "phoenix not re-run" 1 !fired;
  Alcotest.(check int) "backlog still empty" 0 (Runtime.phoenix_backlog (Session.runtime env))

(* Recovery of a clean image runs on a fresh lock manager with nothing
   in flight: its scans are lock-free snapshot reads that end with it,
   and a regular transaction can then write a recovered activation. *)
let recovery_takes_no_locks kind () =
  let env = Session.create ~store:kind () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"R" in
        let merchant = Credit_card.new_merchant env txn ~name:"M" in
        let card = Credit_card.new_card env txn ~customer ~limit:1000.0 () in
        ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
        ignore (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 500.0 ]);
        (card, merchant))
  in
  Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:300.0);
  let env = Session.recover (Session.crash env) in
  let counters = Session.counters env in
  let counter name = List.assoc name counters in
  Alcotest.(check int) "no S locks" 0 (counter "locks.s_granted");
  Alcotest.(check int) "no X locks" 0 (counter "locks.x_granted");
  Alcotest.(check int) "no object snapshot left" 0 (counter "objects.mvcc.live_snapshots");
  Alcotest.(check int) "no trigger snapshot left" 0 (counter "triggers.mvcc.live_snapshots");
  Credit_card.define_all env;
  Session.with_txn env (fun txn ->
      match Session.active_triggers env txn card with
      | (id, _) :: _ -> Session.deactivate env txn id
      | [] -> Alcotest.fail "activation not recovered");
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "one activation left" 1 (List.length (Session.active_triggers env txn card)))

let both_kinds name f =
  [
    Alcotest.test_case (name ^ " (mem)") `Quick (f `Mem);
    Alcotest.test_case (name ^ " (disk)") `Quick (f `Disk);
  ]

let suite =
  List.concat
    [
      both_kinds "objects, clusters, activations survive" objects_and_triggers_survive;
      both_kinds "mid-composite FSM state survives" mid_composite_state_survives;
      both_kinds "unflushed work lost" unflushed_work_is_lost;
      both_kinds "phoenix queue survives crash" phoenix_survives_crash;
      both_kinds "double crash" recover_twice;
      both_kinds "dangling activation row pruned" dangling_row_pruned;
      both_kinds "recovery takes no locks" recovery_takes_no_locks;
      [ Alcotest.test_case "recovery keeps the disk pool config" `Quick recovery_keeps_pool_config ];
      both_kinds "recovery keeps every setting" recovery_keeps_settings;
    ]
