(* MVCC snapshot read path.

   (a) Seeded differential: interleaved writer transactions (inserts,
       updates, deletes, aborts, deadlock restarts) against a serial
       oracle — an array of committed states indexed by commit timestamp.
       Every snapshot read must see exactly the committed prefix at its
       pinned timestamp, short snapshots and long-lived (repeatable)
       snapshots alike, and no snapshot reader ever takes an S lock.
       Runs on both backends, and on K independent lanes (own manager,
       own store, own commit clock — the per-shard-clock structure of
       Ode_parallel.Sharded) interleaved in one process; K honours
       ODE_SHARDS.

   (b) Version-chain GC property: a long-lived snapshot pins its version
       across updates and a checkpoint; once it closes and the store
       checkpoints at quiescence, every chain returns to length 1 and
       versions_installed = versions_pruned + surviving versions.

   (c) End-to-end wiring: a Concur-certified snapshot-safe trigger
       cascade fires with zero S locks under Session.enable_validation
       (empty observed S set, no violations); a non-certified trigger
       still takes them (negative control).

   (d) Recovery: version chains are rebuilt from the recovered records
       only — a crash with an uncommitted update in flight recovers to
       snapshot reads of the committed value. *)

module Store = Ode_storage.Store
module Mem_store = Ode_storage.Mem_store
module Disk_store = Ode_storage.Disk_store
module Txn = Ode_storage.Txn
module Lock_manager = Ode_storage.Lock_manager
module Rid = Ode_storage.Rid
module Prng = Ode_util.Prng
module Session = Ode.Session
module Dsl = Ode.Dsl
module Runtime = Ode_trigger.Runtime
module Value = Ode_objstore.Value
module IntMap = Map.Make (Int)

let lanes_env ~default =
  match Sys.getenv_opt "ODE_SHARDS" with
  | None | Some "" -> default
  | Some text -> (
      match int_of_string_opt text with
      | Some k when k > 0 -> k
      | _ -> Printf.ksprintf failwith "ODE_SHARDS=%S is not a positive integer" text)

let make_store kind mgr name =
  match kind with
  | `Mem -> Mem_store.ops (Mem_store.create ~mgr ~name ())
  | `Disk ->
      Disk_store.ops
        (Disk_store.create ~mgr ~name
           ~settings:{ Ode_storage.Settings.default with page_size = 256; pool_capacity = 8 }
           ())

let counter counters name = try List.assoc name counters with Not_found -> 0

(* ------------------------------------------------------------------ *)
(* (a) Differential: interleaved writers vs. a serial oracle.          *)

(* One lane: one manager + store + oracle. The oracle is the committed
   state after each commit timestamp; strict 2PL serializes conflicting
   writers in commit order, and writers here are blind (no read
   dependencies), so applying each transaction's successful ops at its
   commit point reproduces the committed prefix exactly. *)
type lane = {
  mgr : Txn.mgr;
  store : Store.t;
  prng : Prng.t;
  mutable history : string option IntMap.t array; (* index = commit ts *)
  mutable pool : Rid.t list; (* every rid ever minted, committed or not *)
  writers : writer array;
  mutable long_lived : (Txn.t * int) list; (* open snapshot, pinned ts *)
}

and writer = {
  mutable txn : Txn.t option;
  mutable ops_left : int;
  mutable pending : (int * string option) list; (* reversed op log *)
}

let new_lane kind ~seed ~name =
  let mgr = Txn.create_mgr () in
  {
    mgr;
    store = make_store kind mgr name;
    prng = Prng.create ~seed;
    history = [| IntMap.empty |];
    pool = [];
    writers = Array.init 3 (fun _ -> { txn = None; ops_left = 0; pending = [] });
    long_lived = [];
  }

let oracle_at lane ts =
  if ts < 0 || ts >= Array.length lane.history then
    Alcotest.failf "snapshot ts %d out of oracle range [0, %d)" ts (Array.length lane.history);
  lane.history.(ts)

let payload lane = Printf.sprintf "v%Ld" (Prng.next_int64 lane.prng)

let pick_rid lane =
  match lane.pool with
  | [] -> None
  | pool -> Some (List.nth pool (Prng.int lane.prng (List.length pool)))

(* One scheduling turn of one writer: begin / one op / commit-or-abort.
   Would_block wastes the turn; Deadlock aborts and drops the script. *)
let writer_turn lane w =
  match w.txn with
  | None ->
      w.txn <- Some (Txn.begin_txn lane.mgr);
      w.ops_left <- 1 + Prng.int lane.prng 6;
      w.pending <- []
  | Some txn -> (
      let op () =
        if w.ops_left <= 0 then begin
          (* commit or abort *)
          if Prng.chance lane.prng 0.25 then begin
            Txn.abort txn;
            w.txn <- None
          end
          else begin
            Txn.commit txn;
            (if w.pending <> [] then begin
               let ts = Txn.commit_ts txn in
               Alcotest.(check int)
                 "commit timestamps are dense in flush order" (Array.length lane.history) ts;
               let next =
                 List.fold_left
                   (fun st (rid, v) ->
                     match v with
                     | Some p -> IntMap.add rid (Some p) st
                     | None -> IntMap.remove rid st)
                   lane.history.(ts - 1) (List.rev w.pending)
               in
               lane.history <- Array.append lane.history [| next |]
             end
             else
               Alcotest.(check int) "read-only commit is never stamped" (-1) (Txn.commit_ts txn));
            w.txn <- None
          end
        end
        else begin
          w.ops_left <- w.ops_left - 1;
          match Prng.int lane.prng 10 with
          | 0 | 1 | 2 | 3 ->
              let p = payload lane in
              let rid = lane.store.Store.insert txn (Bytes.of_string p) in
              lane.pool <- rid :: lane.pool;
              w.pending <- (Rid.to_int rid, Some p) :: w.pending
          | 4 | 5 | 6 -> (
              match pick_rid lane with
              | None -> ()
              | Some rid -> (
                  let p = payload lane in
                  match lane.store.Store.update txn rid (Bytes.of_string p) with
                  | () -> w.pending <- (Rid.to_int rid, Some p) :: w.pending
                  | exception Store.Store_error _ -> () (* already deleted *)))
          | _ -> (
              match pick_rid lane with
              | None -> ()
              | Some rid -> (
                  match lane.store.Store.delete txn rid with
                  | () -> w.pending <- (Rid.to_int rid, None) :: w.pending
                  | exception Store.Store_error _ -> ()))
        end
      in
      match op () with
      | () -> ()
      | exception Store.Would_block _ -> ()
      | exception (Lock_manager.Deadlock _ | Store.Write_conflict _) ->
          (if Txn.is_active txn then Txn.abort txn);
          w.txn <- None)

(* Verify a pinned snapshot against the oracle: point reads of random
   rids, then (optionally) a full scan. *)
let verify_snapshot ?(full = false) lane txn ts =
  let oracle = oracle_at lane ts in
  for _ = 1 to 3 do
    match pick_rid lane with
    | None -> ()
    | Some rid ->
        let got = Option.map Bytes.to_string (lane.store.Store.read txn rid) in
        let want = Option.join (IntMap.find_opt (Rid.to_int rid) oracle) in
        Alcotest.(check (option string))
          (Printf.sprintf "snapshot read @%d of rid %d" ts (Rid.to_int rid))
          want got
  done;
  if full then begin
    let got = ref [] in
    lane.store.Store.iter txn (fun rid p -> got := (Rid.to_int rid, Bytes.to_string p) :: !got);
    let want =
      IntMap.fold (fun rid v acc -> match v with Some p -> (rid, p) :: acc | None -> acc) oracle []
    in
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "snapshot iter @%d" ts)
      (List.sort compare want) (List.sort compare !got)
  end

let open_snapshot lane =
  let txn = Txn.begin_txn ~snapshot:true lane.mgr in
  let clock = Txn.commit_clock lane.mgr in
  (* the first read pins the snapshot at the current commit clock *)
  (match pick_rid lane with
  | Some rid -> ignore (lane.store.Store.read txn rid)
  | None -> ignore (lane.store.Store.read txn (Rid.of_int 0)));
  let ts = Txn.snapshot_ts txn in
  Alcotest.(check int) "snapshot pinned at the commit clock" clock ts;
  (txn, ts)

let lane_round round lane =
  Array.iter (writer_turn lane) lane.writers;
  (* a short snapshot every round *)
  let txn, ts = open_snapshot lane in
  verify_snapshot ~full:(round mod 20 = 0) lane txn ts;
  Txn.commit txn;
  (* long-lived snapshots: open one occasionally, re-verify those already
     open every round (repeatable reads), close the oldest now and then *)
  if Prng.chance lane.prng 0.1 && List.length lane.long_lived < 2 then
    lane.long_lived <- lane.long_lived @ [ open_snapshot lane ];
  List.iter (fun (txn, ts) -> verify_snapshot lane txn ts) lane.long_lived;
  if Prng.chance lane.prng 0.05 then begin
    match lane.long_lived with
    | [] -> ()
    | (txn, ts) :: rest ->
        verify_snapshot ~full:true lane txn ts;
        Txn.commit txn;
        lane.long_lived <- rest
  end

let drain_lane lane =
  Array.iter
    (fun w ->
      match w.txn with
      | Some txn ->
          if Txn.is_active txn then Txn.abort txn;
          w.txn <- None
      | None -> ())
    lane.writers;
  List.iter
    (fun (txn, ts) ->
      verify_snapshot ~full:true lane txn ts;
      Txn.commit txn)
    lane.long_lived;
  lane.long_lived <- []

let differential kind ~lanes ~rounds () =
  Seeds.with_seed "mvcc.differential" (fun seed ->
      let lanes =
        List.init lanes (fun i ->
            new_lane kind
              ~seed:(Int64.of_int (seed + (i * 7919)))
              ~name:(Printf.sprintf "mvcc%d" i))
      in
      for round = 1 to rounds do
        List.iter (lane_round round) lanes
      done;
      List.iter
        (fun lane ->
          drain_lane lane;
          (* snapshot readers never touched the lock manager: writers take
             only X locks, so S grants must be exactly zero *)
          Alcotest.(check int) "zero S locks across the whole run" 0
            (Ode_util.Metrics.get (Lock_manager.metrics (Txn.lock_mgr lane.mgr)) "s_granted");
          let c = Ode_util.Metrics.values lane.store.Store.metrics in
          Alcotest.(check bool) "snapshot reads were exercised" true
            (counter c "mvcc.snapshot_reads" > 0);
          Alcotest.(check int) "every snapshot read avoided an S lock"
            (counter c "mvcc.snapshot_reads")
            (counter c "mvcc.s_locks_avoided"))
        lanes)

(* ------------------------------------------------------------------ *)
(* (b) Version-chain GC property.                                      *)

let gc_property kind () =
  let mgr = Txn.create_mgr () in
  let store = make_store kind mgr "gc" in
  let txn = Txn.begin_txn mgr in
  let rid = store.Store.insert txn (Bytes.of_string "v0") in
  Txn.commit txn;
  let update i =
    let txn = Txn.begin_txn mgr in
    store.Store.update txn rid (Bytes.of_string (Printf.sprintf "v%d" i));
    Txn.commit txn
  in
  for i = 1 to 20 do
    update i
  done;
  (* A long-lived snapshot pins v20's version... *)
  let snap = Txn.begin_txn ~snapshot:true mgr in
  Alcotest.(check (option string)) "snapshot sees v20" (Some "v20")
    (Option.map Bytes.to_string (store.Store.read snap rid));
  let pinned_ts = Txn.snapshot_ts snap in
  for i = 21 to 50 do
    update i
  done;
  (* ...across a checkpoint: the GC watermark is the oldest live
     snapshot, so pruning keeps v20 and everything newer. *)
  store.Store.checkpoint ();
  let c = Ode_util.Metrics.values store.Store.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "pinned snapshot holds the chain open (len %d)" (counter c "mvcc.max_chain_len"))
    true
    (counter c "mvcc.max_chain_len" > 1);
  Alcotest.(check (option string)) "snapshot still sees v20 after checkpoint" (Some "v20")
    (Option.map Bytes.to_string (store.Store.read snap rid));
  Alcotest.(check int) "oldest_snapshot_lag counts the pin" (Txn.commit_clock mgr - pinned_ts)
    (Txn.oldest_snapshot_lag mgr);
  (* Close the snapshot: at quiescence the next checkpoint prunes every
     chain back to a single version. *)
  Txn.commit snap;
  store.Store.checkpoint ();
  let c = Ode_util.Metrics.values store.Store.metrics in
  Alcotest.(check int) "chains return to length 1" 1 (counter c "mvcc.max_chain_len");
  Alcotest.(check int) "every installed version is accounted for"
    (counter c "mvcc.versions_installed")
    (counter c "mvcc.versions_pruned" + counter c "mvcc.chains");
  let txn = Txn.begin_txn ~snapshot:true mgr in
  Alcotest.(check (option string)) "fresh snapshot sees the newest version" (Some "v50")
    (Option.map Bytes.to_string (store.Store.read txn rid));
  Txn.commit txn

(* ------------------------------------------------------------------ *)
(* (c) End-to-end: certified snapshot-safe cascade fires with zero
   S locks; a non-certified trigger still takes them.                  *)

let wiring_schema env =
  Session.define_class env ~name:"Gauge"
    ~fields:[ ("n", Dsl.int 0); ("seen", Dsl.int 0) ]
    ~events:[ Dsl.user_event "Ping" ]
    ~triggers:
      [
        (* read-only action, declared so: obj_x is empty -> certified *)
        Dsl.trigger "Watch" ~perpetual:true ~event:"Ping" ~reads:[ "Gauge" ]
          ~action:(fun env ctx -> ignore (Dsl.obj_get env ctx "n"));
      ]
    ();
  Session.define_class env ~name:"Tally"
    ~fields:[ ("n", Dsl.int 0) ]
    ~events:[ Dsl.user_event "Poke" ]
    ~triggers:
      [
        (* default effects: reads and writes its own class -> not certified *)
        Dsl.trigger "Bump" ~perpetual:true ~event:"Poke"
          ~action:(fun env ctx ->
            Dsl.obj_set env ctx "n" (Dsl.int (1 + Value.to_int (Dsl.obj_get env ctx "n"))));
      ]
    ()

let certified_lock_free () =
  let env = Session.create () in
  wiring_schema env;
  let report = Session.concur_report env in
  let row cls name =
    List.find
      (fun r ->
        String.equal r.Ode_analysis.Concur.row_cls cls
        && String.equal r.Ode_analysis.Concur.row_name name)
      report.Ode_analysis.Concur.rp_rows
  in
  Alcotest.(check bool) "Watch certified" true
    (row "Gauge" "Watch").Ode_analysis.Concur.row_snapshot_safe;
  Alcotest.(check bool) "Bump not certified" false
    (row "Tally" "Bump").Ode_analysis.Concur.row_snapshot_safe;
  Alcotest.(check bool) "runtime received the certified set" true
    (Runtime.snapshot_safe (Session.runtime env) ~cls:"Gauge" ~trigger:"Watch");
  Session.enable_validation env;
  let gauge, tally, ping, poke =
    Session.with_txn env (fun txn ->
        let gauge = Session.pnew env txn ~cls:"Gauge" ~init:[ ("n", Dsl.int 7) ] () in
        let tally = Session.pnew env txn ~cls:"Tally" () in
        ignore (Session.activate env txn gauge ~trigger:"Watch" ~args:[]);
        ignore (Session.activate env txn tally ~trigger:"Bump" ~args:[]);
        ( gauge,
          tally,
          Session.user_event_id env txn gauge "Ping",
          Session.user_event_id env txn tally "Poke" ))
  in
  (* Certified cascade: post straight through the runtime (the session's
     post_event wrapper would S-lock the anchor to resolve its class). *)
  Session.reset_counters env;
  Session.with_txn env (fun txn ->
      Runtime.post (Session.runtime env) txn ~obj:gauge ~event:ping);
  let c = Session.counters env in
  Alcotest.(check int) "certified firing took zero S locks" 0 (counter c "locks.s_granted");
  Alcotest.(check bool) "advance read the state lock-free" true
    (counter c "rt.snapshot_reads" > 0);
  Alcotest.(check int) "lock-free reads all avoided fresh S locks"
    (counter c "rt.snapshot_reads")
    (counter c "rt.s_locks_avoided");
  (* Negative control: the uncertified trigger still reads under S. *)
  Session.reset_counters env;
  Session.with_txn env (fun txn ->
      Runtime.post (Session.runtime env) txn ~obj:tally ~event:poke);
  let c = Session.counters env in
  Alcotest.(check bool) "uncertified firing takes S locks" true
    (counter c "locks.s_granted" > 0);
  Session.with_txn env (fun txn ->
      Alcotest.(check int) "Bump ran" 1 (Value.to_int (Session.get_field env txn tally "n")));
  Alcotest.(check bool) "firings were validated" true (Session.validation_frames env > 0);
  Alcotest.(check (list string)) "no violations (certified S set empty)" []
    (Session.validation_violations env)

(* ------------------------------------------------------------------ *)
(* (d) Recovery ignores uncommitted versions.                          *)

let recovery_committed_only () =
  let env = Session.create ~store:`Mem () in
  Session.define_class env ~name:"Acct" ~fields:[ ("n", Dsl.int 0) ] ();
  let oid =
    Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"Acct" ~init:[ ("n", Dsl.int 1) ] ())
  in
  Session.sync env;
  (* Crash with an uncommitted update in flight. *)
  let txn = Session.begin_txn env in
  Session.set_field env txn oid "n" (Dsl.int 2);
  let image = Session.crash env in
  let env = Session.recover image in
  Session.define_class env ~name:"Acct" ~fields:[ ("n", Dsl.int 0) ] ();
  (* Chains were rebuilt from the recovered records (baseline versions at
     ts 0); the in-flight write never became a version. Recovery itself
     scans under locks — count only the snapshot read below. *)
  Session.reset_counters env;
  let seen =
    Session.with_snapshot env (fun txn -> Value.to_int (Session.get_field env txn oid "n"))
  in
  Alcotest.(check int) "snapshot after recovery sees the committed value" 1 seen;
  let c = Session.counters env in
  Alcotest.(check int) "snapshot read took no locks" 0 (counter c "locks.s_granted")

(* ------------------------------------------------------------------ *)

let suite =
  let k = lanes_env ~default:4 in
  [
    Alcotest.test_case "differential vs serial oracle (mem)" `Quick
      (differential `Mem ~lanes:1 ~rounds:400);
    Alcotest.test_case
      (Printf.sprintf "differential, %d independent commit clocks (mem)" k)
      `Quick
      (differential `Mem ~lanes:k ~rounds:150);
    Alcotest.test_case "differential vs serial oracle (disk)" `Quick
      (differential `Disk ~lanes:1 ~rounds:150);
    Alcotest.test_case "version-chain GC with a pinned snapshot (mem)" `Quick (gc_property `Mem);
    Alcotest.test_case "version-chain GC with a pinned snapshot (disk)" `Quick (gc_property `Disk);
    Alcotest.test_case "certified cascade is lock-free end to end" `Quick certified_lock_free;
    Alcotest.test_case "recovery ignores uncommitted versions" `Quick recovery_committed_only;
  ]
