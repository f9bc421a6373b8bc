(* Fleet-scale crash exploration for the replication layer: the
   workload, its oracle and its failover checks, swept by
   Ode_storage.Sweep (the invariants are listed in crashfleet.mli). *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value
module Faults = Ode_storage.Faults
module Sweep = Ode_storage.Sweep
module Commit_pipeline = Ode_storage.Commit_pipeline
module Recovery = Ode_storage.Recovery
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Txn = Ode_storage.Txn
module Prng = Ode_util.Prng

type config = {
  seed : int;
  ops : int;  (** schedule length *)
  cards : int;
  replicas : int;
  quorum : int;
  max_batch : int;
  max_delay_ticks : int;
  page_size : int;
  pool_capacity : int;
}

let default_config =
  {
    seed = 0x0DE;
    ops = 24;
    cards = 3;
    replicas = 2;
    quorum = 2;
    max_batch = 4;
    max_delay_ticks = 12;
    page_size = 256;
    pool_capacity = 8;
  }

type entry = Dep of int * int | Wd of int * int

let card_of = function Dep (c, _) | Wd (c, _) -> c

let entry_to_string = function
  | Dep (c, a) -> Printf.sprintf "dep(%d,%d)" c a
  | Wd (c, a) -> Printf.sprintf "wd(%d,%d)" c a

let schedule config =
  let rng = Prng.create ~seed:(Int64.of_int config.seed) in
  Array.init config.ops (fun _ ->
      let c = Prng.int rng config.cards in
      match Prng.int rng 10 with
      | 0 | 1 -> Wd (c, 1000)  (* overdraft: vetoed, aborts *)
      | 2 -> Wd (c, 3)
      | _ -> Dep (c, 1 + Prng.int rng 9))

(* ---------------- schema ---------------- *)

(* Acct: [bal] balance, [ops] committed-operation count (the resume
   cursor), [deps] committed deposits, [marks] the durable trigger-firing
   log (DepWatch bumps it per deposit; Overdraft bumps it then vetoes the
   transaction, rolling its own mark back — a committed mark is exactly a
   committed firing). *)
let define_schema env =
  let bump ctx field = ctx.Session.set field (Value.Int (Dsl.self_int ctx field + 1)) in
  let m_dep ctx args =
    ctx.Session.set "bal" (Value.Int (Dsl.self_int ctx "bal" + Value.to_int (Dsl.nth args 0)));
    bump ctx "deps";
    bump ctx "ops";
    Value.Null
  in
  let m_wd ctx args =
    ctx.Session.set "bal" (Value.Int (Dsl.self_int ctx "bal" - Value.to_int (Dsl.nth args 0)));
    bump ctx "ops";
    Value.Null
  in
  let m_mark ctx _args =
    bump ctx "marks";
    Value.Null
  in
  Session.define_class env ~name:"Acct"
    ~fields:
      [
        ("idx", Dsl.int (-1));
        ("bal", Dsl.int 0);
        ("ops", Dsl.int 0);
        ("deps", Dsl.int 0);
        ("marks", Dsl.int 0);
      ]
    ~methods:[ ("Dep", m_dep); ("Wd", m_wd); ("Mark", m_mark) ]
    ~events:[ Dsl.after "Dep"; Dsl.after "Wd" ]
    ~masks:
      [
        ( "Neg",
          fun env ctx -> Value.to_int (Dsl.obj_get env ctx "bal") < 0 );
      ]
    ~triggers:
      [
        Dsl.trigger "Overdraft" ~perpetual:true ~event:"after Wd & Neg"
          ~action:(fun env ctx ->
            ignore (Dsl.obj_invoke env ctx "Mark" []);
            Session.tabort ());
        Dsl.trigger "DepWatch" ~perpetual:true ~event:"after Dep"
          ~action:(fun env ctx -> ignore (Dsl.obj_invoke env ctx "Mark" []));
      ]
    ()

let setup env config =
  Session.with_txn env (fun txn ->
      Array.init config.cards (fun i ->
          let o =
            Session.pnew env txn ~cls:"Acct"
              ~init:[ ("idx", Value.Int i); ("bal", Value.Int 100) ]
              ()
          in
          ignore (Session.activate env txn o ~trigger:"Overdraft" ~args:[]);
          ignore (Session.activate env txn o ~trigger:"DepWatch" ~args:[]);
          o))

(* [oids.(i)] for card [i], looked up by the [idx] field so it also works
   on a freshly promoted session whose cluster order is its own. *)
let card_oids env config =
  let oids = Array.make config.cards None in
  Session.with_txn env (fun txn ->
      List.iter
        (fun o ->
          let i = Value.to_int (Session.get_field env txn o "idx") in
          oids.(i) <- Some o)
        (Session.cluster env ~cls:"Acct"));
  Array.map (function Some o -> o | None -> failwith "crashfleet: missing card") oids

let exec_entry env oids entry =
  let act txn =
    match entry with
    | Dep (c, a) -> ignore (Session.invoke env txn oids.(c) "Dep" [ Value.Int a ])
    | Wd (c, a) -> ignore (Session.invoke env txn oids.(c) "Wd" [ Value.Int a ])
  in
  match
    Session.with_txn env (fun txn ->
        act txn;
        txn)
  with
  | txn -> Some txn
  | exception Session.Aborted -> None

type card_state = { cs_bal : int; cs_ops : int; cs_deps : int; cs_marks : int }

let card_state_to_string s =
  Printf.sprintf "{bal=%d ops=%d deps=%d marks=%d}" s.cs_bal s.cs_ops s.cs_deps
    s.cs_marks

let read_card env txn oid =
  let f name = Value.to_int (Session.get_field env txn oid name) in
  { cs_bal = f "bal"; cs_ops = f "ops"; cs_deps = f "deps"; cs_marks = f "marks" }

let read_cards env oids =
  Session.with_txn env (fun txn -> Array.map (read_card env txn) oids)

let ops_count env oids c =
  Session.with_txn env (fun txn ->
      Value.to_int (Session.get_field env txn oids.(c) "ops"))

(* ---------------- sequential oracle ---------------- *)

type oracle = {
  o_committed : bool array;  (** entry j committed? *)
  o_pre : int array;  (** committed ops on entry j's card before j *)
  o_state : card_state array;  (** final per-card state *)
}

let oracle_run config =
  let env = Session.create ~store:`Mem () in
  define_schema env;
  let oids = setup env config in
  let entries = schedule config in
  let per_card = Array.make config.cards 0 in
  let committed = Array.make config.ops false in
  let pre = Array.make config.ops 0 in
  Array.iteri
    (fun j e ->
      let c = card_of e in
      pre.(j) <- per_card.(c);
      match exec_entry env oids e with
      | Some _ ->
          committed.(j) <- true;
          per_card.(c) <- per_card.(c) + 1
      | None -> ())
    entries;
  { o_committed = committed; o_pre = pre; o_state = read_cards env oids }

(* ---------------- crashed run ---------------- *)

let check violations cond fmt =
  Printf.ksprintf (fun msg -> if not cond then violations := msg :: !violations) fmt

let compare_states violations ~got ~want =
  Array.iteri
    (fun i want_s ->
      let got_s = got.(i) in
      check violations (got_s = want_s) "card %d is %s, oracle %s" i
        (card_state_to_string got_s)
        (card_state_to_string want_s))
    want

(* Replica warm state must equal the committed state implied by its own
   log copy (and, for the baseline, by the primary's durable WAL). *)
let check_replica_state violations mgr i =
  List.iter
    (fun stream ->
      let replay = Replication.replica_replay mgr i stream in
      let want = Recovery.committed_state (Replication.Replay.records replay) in
      let got = Replication.Replay.state replay in
      check violations (got = want)
        "replica %d %s warm state diverges from its log's committed state" i
        (Replication.stream_to_string stream))
    [ `Objects; `Triggers ]

let run ~oracle ~config plan =
  let violations = ref [] in
  let faults = Faults.create () in
  let durability =
    Commit_pipeline.Quorum
      {
        n = config.quorum;
        max_batch = config.max_batch;
        max_delay_ticks = config.max_delay_ticks;
      }
  in
  let env =
    Session.create ~store:`Disk ~page_size:config.page_size
      ~pool_capacity:config.pool_capacity ~durability ~faults ()
  in
  define_schema env;
  let oids = setup env config in
  Session.sync env;
  let mgr = Replication.attach ~replicas:config.replicas env in
  (* From here on, flush and ship points index the workload only. *)
  Faults.reset faults;
  Faults.arm faults plan;
  let entries = schedule config in
  let ledger = ref [] in
  let downed = ref false in
  (try
     Array.iteri
       (fun j e ->
         match exec_entry env oids e with
         | Some txn -> ledger := (j, txn) :: !ledger
         | None -> ())
       entries;
     Session.sync env
   with Faults.Injected_crash _ -> downed := true);
  let acked =
    List.filter (fun (_, txn) -> Txn.durably_acked txn) !ledger
    |> List.map fst |> List.sort compare
  in
  if not !downed then begin
    check violations (plan = []) "the planned crash never downed the primary";
    (* Completed fault-free: every commit quorum-acked, state and fleet
       agree with the oracle. *)
    let committed = List.map fst !ledger |> List.sort compare in
    check violations
      (List.length acked = List.length committed)
      "%d commits but only %d quorum-acked after sync"
      (List.length committed) (List.length acked);
    Array.iteri
      (fun j e ->
        check violations
          (List.mem j committed = oracle.o_committed.(j))
          "entry %d (%s) committed=%b, oracle %b" j (entry_to_string e)
          (List.mem j committed)
          oracle.o_committed.(j))
      entries;
    compare_states violations ~got:(read_cards env oids) ~want:oracle.o_state;
    for i = 0 to config.replicas - 1 do
      check_replica_state violations mgr i;
      let obj_off, trig_off = Replication.replica_offsets mgr i in
      let obj_store, trig_store = Session.stores env in
      check violations
        (obj_off = Wal.durable_size obj_store.Store.wal
        && trig_off = Wal.durable_size trig_store.Store.wal)
        "replica %d offsets (%d,%d) behind primary durable" i obj_off trig_off
    done
  end
  else begin
    (* The primary died mid-workload. Promote the furthest-ahead replica,
       verify nothing quorum-acked is lost, resume, and match the
       oracle. *)
    (try ignore (Session.crash env) with _ -> ());
    let best = Replication.furthest_ahead mgr in
    let promo =
      Replication.promote ~durability:Commit_pipeline.Immediate
        ~schema:define_schema mgr best
    in
    let env2 = promo.Replication.pm_session in
    let report = promo.Replication.pm_report in
    (* The new primary is the old one, bar the durability overridden
       above. *)
    let old = Session.settings env in
    check violations
      (Session.settings env2
      = { old with storage = { old.storage with durability = Commit_pipeline.Immediate } })
      "promoted primary's settings differ from the old primary's";
    check violations
      (report.Session.rr_obj_tail = 0 && report.Session.rr_trig_tail = 0)
      "promotion truncated a non-empty tail (obj %d, trig %d)"
      report.Session.rr_obj_tail report.Session.rr_trig_tail;
    let oids2 = card_oids env2 config in
    (* No quorum-acked commit lost: the acked entry's committed-op must
       have survived into the promoted state. *)
    List.iter
      (fun j ->
        let c = card_of entries.(j) in
        let cur = ops_count env2 oids2 c in
        check violations
          (cur >= oracle.o_pre.(j) + 1)
          "quorum-acked entry %d (%s) lost at failover (card %d ops %d, needs > %d)" j
          (entry_to_string entries.(j))
          c cur oracle.o_pre.(j))
      acked;
    (* Resume: re-run entry j iff its card's committed-op cursor shows it
       has not committed yet. Re-running an entry the oracle aborts is
       idempotent (it aborts again), so the cursor rule is exact. *)
    Array.iteri
      (fun j e ->
        let c = card_of e in
        if ops_count env2 oids2 c <= oracle.o_pre.(j) then
          ignore (exec_entry env2 oids2 e))
      entries;
    Session.sync env2;
    compare_states violations ~got:(read_cards env2 oids2) ~want:oracle.o_state
  end;
  (faults, List.rev !violations)

(* ---------------- the sweep ---------------- *)

let sweep ?(config = default_config) () =
  let oracle = oracle_run config in
  let baseline, violations = run ~oracle ~config [] in
  let crash _ = [ Faults.Crash ] in
  let result =
    Sweep.sweep ~baseline
      [
        Site { site = Wal_flush; every = 1; acts = crash };
        Site { site = Ship; every = 1; acts = crash };
      ]
      (run ~oracle ~config)
  in
  { result with violations = List.map (fun v -> ("baseline", v)) violations @ result.violations }
