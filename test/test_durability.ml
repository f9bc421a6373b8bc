(* Group-commit durability pipeline (Commit_pipeline): mode parsing,
   deferred durability acks, the deterministic tick deadline, the async
   lag window, checkpoint draining — and a seeded mode differential:
   Immediate, Group and Async must produce identical committed state and
   trigger behaviour, differing only in how many log forces they take. *)

module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Mem_store = Ode_storage.Mem_store
module Recovery = Ode_storage.Recovery
module Rid = Ode_storage.Rid
module Commit_pipeline = Ode_storage.Commit_pipeline
module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Value = Ode_objstore.Value
module Prng = Ode_util.Prng

let b = Bytes.of_string

let make_store ?(durability = Ode_storage.Commit_pipeline.Immediate) () =
  let mgr = Txn.create_mgr () in
  let settings = { Ode_storage.Settings.default with durability } in
  let store = Mem_store.ops (Mem_store.create ~settings ~mgr ~name:"t" ()) in
  (mgr, store)

let commit_write mgr store payload =
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b payload));
  Txn.commit txn;
  txn

let abort_write mgr store =
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b "doomed"));
  Txn.abort txn

(* ------------------------------------------------------------------ *)

let mode_strings () =
  let roundtrip text expected =
    match Commit_pipeline.mode_of_string text with
    | Error msg -> Alcotest.failf "%S rejected: %s" text msg
    | Ok mode ->
        Alcotest.(check string)
          (Printf.sprintf "%S normalises" text)
          expected
          (Commit_pipeline.mode_to_string mode)
  in
  roundtrip "immediate" "immediate";
  roundtrip "group" "group:16:64";
  roundtrip "group:8" "group:8:64";
  roundtrip "group:8:32" "group:8:32";
  roundtrip "async" "async:32";
  roundtrip "async:5" "async:5";
  List.iter
    (fun text ->
      match Commit_pipeline.mode_of_string text with
      | Ok _ -> Alcotest.failf "%S should be rejected" text
      | Error _ -> ())
    [ ""; "batch"; "group:0"; "group:-3"; "group:4:0"; "async:0"; "group:4:8:2"; "group:x" ]

let group_ack_deferral () =
  let mgr, store =
    make_store ~durability:(Commit_pipeline.Group { max_batch = 3; max_delay_ticks = 1000 }) ()
  in
  let flushes () = Ode_util.Metrics.get store.Store.metrics "wal_flushes" in
  let base = flushes () in
  let t1 = commit_write mgr store "one" in
  let t2 = commit_write mgr store "two" in
  Alcotest.(check bool) "t1 committed" true (t1.Txn.state = Txn.Committed);
  Alcotest.(check bool) "t1 ack deferred" false (Txn.durably_acked t1);
  Alcotest.(check bool) "t2 ack deferred" false (Txn.durably_acked t2);
  Alcotest.(check int) "no log force yet" base (flushes ());
  Alcotest.(check int) "two commits queued" 2 (Commit_pipeline.pending store.Store.pipeline);
  (* The third commit fills the batch: one force, everything acked. *)
  let t3 = commit_write mgr store "three" in
  Alcotest.(check int) "exactly one force for the batch" (base + 1) (flushes ());
  List.iter
    (fun txn -> Alcotest.(check bool) "durably acked after batch flush" true (Txn.durably_acked txn))
    [ t1; t2; t3 ];
  Alcotest.(check int) "queue drained" 0 (Commit_pipeline.pending store.Store.pipeline);
  (* The durable log carries the batch as one atomic Commit_group. *)
  let groups =
    List.filter_map
      (function Wal.Commit_group txns -> Some txns | _ -> None)
      (Wal.durable_records store.Store.wal)
  in
  Alcotest.(check (list (list int)))
    "one group with all three ids" [ [ t1.Txn.id; t2.Txn.id; t3.Txn.id ] ] groups

let tick_deadline () =
  (* A queued commit must not wait forever for the batch to fill: the
     pipeline's logical clock (one tick per commit or write-abort) forces
     the batch after max_delay_ticks. *)
  let mgr, store =
    make_store ~durability:(Commit_pipeline.Group { max_batch = 1000; max_delay_ticks = 2 }) ()
  in
  let t1 = commit_write mgr store "lonely" in
  Alcotest.(check bool) "queued, not acked" false (Txn.durably_acked t1);
  abort_write mgr store;
  (* tick 2: t1 enqueued at tick 1, deadline is 2 ticks — next tick fires. *)
  abort_write mgr store;
  Alcotest.(check bool) "deadline forced the batch" true (Txn.durably_acked t1);
  Alcotest.(check int) "queue drained" 0 (Commit_pipeline.pending store.Store.pipeline)

let async_lag_window () =
  let max_lag = 2 in
  let mgr, store = make_store ~durability:(Commit_pipeline.Async { max_lag }) () in
  let txns = List.init 7 (fun i -> commit_write mgr store (Printf.sprintf "r%d" i)) in
  (* The unflushed window never exceeds max_lag... *)
  Alcotest.(check bool) "bounded lag" true
    (Commit_pipeline.pending store.Store.pipeline <= max_lag);
  (* ...so at most the last max_lag commits can still be unacked. *)
  let unacked = List.filter (fun txn -> not (Txn.durably_acked txn)) txns in
  Alcotest.(check bool)
    (Printf.sprintf "at most %d unacked (got %d)" max_lag (List.length unacked))
    true
    (List.length unacked <= max_lag);
  Commit_pipeline.flush store.Store.pipeline;
  List.iter
    (fun txn -> Alcotest.(check bool) "acked after explicit flush" true (Txn.durably_acked txn))
    txns

let checkpoint_drains () =
  let mgr, store =
    make_store ~durability:(Commit_pipeline.Group { max_batch = 100; max_delay_ticks = 1000 }) ()
  in
  let t1 = commit_write mgr store "queued" in
  Alcotest.(check bool) "still queued" false (Txn.durably_acked t1);
  store.Store.checkpoint ();
  Alcotest.(check bool) "checkpoint drains the batch" true (Txn.durably_acked t1);
  (* The checkpoint's durable log replays to the committed record. *)
  let state = Recovery.committed_state (Wal.durable_records store.Store.wal) in
  Alcotest.(check int) "one committed record" 1 (List.length state);
  Alcotest.(check string) "payload survived" "queued"
    (Bytes.to_string (snd (List.hd state)))

(* ------------------------------------------------------------------ *)
(* Seeded mode differential: the same credit-card workload under each
   pipeline mode must commit the same transactions, fire the same
   triggers and leave the same durable committed state — only the number
   of log forces may differ. *)

let workload_ops seed n =
  let prng = Prng.create ~seed:(Int64.of_int seed) in
  List.init n (fun _ ->
      let amount = 10.0 +. float_of_int (Prng.int prng 90) in
      match Prng.int prng 5 with
      | 0 | 1 | 2 -> `Buy amount
      | 3 -> `Pay amount
      | _ -> `Deny)

let run_mode ~ops mode =
  let env = Session.create ~store:`Mem ~durability:mode () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"diff" in
        let merchant = Credit_card.new_merchant env txn ~name:"store" in
        let audit = Credit_card.new_audit_log env txn in
        let card = Credit_card.new_card env txn ~customer ~limit:500.0 ~audit () in
        ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
        ignore (Session.activate env txn card ~trigger:"LogDenial" ~args:[]);
        (card, merchant))
  in
  let denied = ref 0 in
  List.iter
    (fun op ->
      match op with
      | `Buy amount -> begin
          match
            Session.attempt env (fun txn -> Credit_card.buy env txn card ~merchant ~amount)
          with
          | Some () -> ()
          | None -> incr denied
        end
      | `Pay amount ->
          Session.with_txn env (fun txn -> Credit_card.pay_bill env txn card ~amount)
      | `Deny -> begin
          (* Over-limit purchase: DenyCredit vetoes, LogDenial records. *)
          match
            Session.attempt env (fun txn ->
                let bal = Credit_card.balance env txn card in
                let lim = Credit_card.limit env txn card in
                Credit_card.buy env txn card ~merchant ~amount:(lim -. bal +. 50.0))
          with
          | Some () -> Alcotest.fail "over-limit purchase was allowed"
          | None -> incr denied
        end)
    ops;
  let balance, limit, marks =
    Session.with_txn env (fun txn ->
        ( Credit_card.balance env txn card,
          Credit_card.limit env txn card,
          Credit_card.black_marks env txn card ))
  in
  let counters = Session.counters env in
  let counter name = try List.assoc name counters with Not_found -> 0 in
  let observable =
    [
      ("balance", Printf.sprintf "%.2f" balance);
      ("limit", Printf.sprintf "%.2f" limit);
      ("black_marks", String.concat "|" marks);
      ("denied", string_of_int !denied);
      ("committed", string_of_int (counter "txn.committed"));
      ("aborted", string_of_int (counter "txn.aborted"));
      ("fires_immediate", string_of_int (counter "rt.fires_immediate"));
      ("fires_end", string_of_int (counter "rt.fires_end"));
      ("fires_dependent", string_of_int (counter "rt.fires_dependent"));
      ("fires_independent", string_of_int (counter "rt.fires_independent"));
    ]
  in
  let flushes = counter "objects.wal_flushes" + counter "triggers.wal_flushes" in
  Session.sync env;
  let image = Session.crash env in
  (observable, flushes, Session.image_wals image)

let committed_map wal_bytes =
  Recovery.committed_state (Wal.decode_records wal_bytes)
  |> List.map (fun (rid, payload) -> (Rid.to_int rid, Bytes.to_string payload))

let mode_differential () =
  Seeds.with_seed "durability.mode-differential" (fun seed ->
      let ops = workload_ops seed 40 in
      let modes =
        [
          ("immediate", Commit_pipeline.Immediate);
          ("group:4", Commit_pipeline.Group { max_batch = 4; max_delay_ticks = 64 });
          ("group:16", Commit_pipeline.Group { max_batch = 16; max_delay_ticks = 64 });
          ("async:8", Commit_pipeline.Async { max_lag = 8 });
        ]
      in
      let results = List.map (fun (name, mode) -> (name, run_mode ~ops mode)) modes in
      let (_, (base_obs, base_flushes, (base_obj, base_trig))) = List.hd results in
      List.iter
        (fun (name, (obs, _flushes, (obj_wal, trig_wal))) ->
          List.iter2
            (fun (key, expect) (_, got) ->
              if not (String.equal expect got) then
                Alcotest.failf "%s diverges on %s: immediate=%s, %s=%s" name key expect name got)
            base_obs obs;
          (* Identical durable committed state once synced. *)
          Alcotest.(check (list (pair int string)))
            (name ^ ": objects committed state")
            (committed_map base_obj) (committed_map obj_wal);
          Alcotest.(check (list (pair int string)))
            (name ^ ": triggers committed state")
            (committed_map base_trig) (committed_map trig_wal))
        (List.tl results);
      (* Batched modes force the log strictly less often. *)
      List.iter
        (fun (name, (_, flushes, _)) ->
          if not (String.equal name "immediate") then
            Alcotest.(check bool)
              (Printf.sprintf "%s uses fewer forces (%d vs %d)" name flushes base_flushes)
              true (flushes < base_flushes))
        results)

let group_crash_recovery () =
  (* A synced group-mode session recovers to the full committed state. *)
  let mode = Commit_pipeline.Group { max_batch = 8; max_delay_ticks = 64 } in
  let env = Session.create ~store:`Disk ~durability:mode () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"gcr" in
        let merchant = Credit_card.new_merchant env txn ~name:"store" in
        let card = Credit_card.new_card env txn ~customer ~limit:10_000.0 () in
        (card, merchant))
  in
  for _ = 1 to 11 do
    Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:100.0)
  done;
  Session.sync env;
  let env' = Session.recover (Session.crash env) in
  Credit_card.define_all env';
  Session.with_txn env' (fun txn ->
      Alcotest.(check (float 0.001)) "all synced purchases recovered" 1100.0
        (Credit_card.balance env' txn card))

(* [sync] forces both pipelines even when the first one's flush faults:
   the trigger store's queued batch must not wait behind the object
   store's failure. *)
let sync_survives_a_fault () =
  let mode = Commit_pipeline.Group { max_batch = 100; max_delay_ticks = 1000 } in
  let env = Session.create ~store:`Disk ~durability:mode () in
  Credit_card.define_all env;
  let card =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"s" in
        Credit_card.new_card env txn ~customer ~limit:100.0 ())
  in
  Session.sync env;
  let commit f =
    let txn = Session.begin_txn env in
    f txn;
    Session.commit env txn;
    txn
  in
  (* One object-store commit, then trigger-store-only commits. *)
  ignore (commit (fun txn -> Session.set_field env txn card "currBal" (Value.Float 1.0)));
  let trigger_txns =
    List.init 3 (fun _ ->
        commit (fun txn -> ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[])))
  in
  List.iter
    (fun txn -> Alcotest.(check bool) "queued, not yet acked" false (Txn.durably_acked txn))
    trigger_txns;
  let faults = Session.faults env in
  Ode_storage.Faults.reset faults;
  Ode_storage.Faults.arm faults
    (match Ode_storage.Faults.plan_of_string "fail@wal_flush:1" with
    | Ok plan -> plan
    | Error msg -> Alcotest.fail msg);
  (match Session.sync env with
  | () -> Alcotest.fail "sync swallowed the injected fault"
  | exception Ode_storage.Faults.Injected_fault _ -> ());
  List.iter
    (fun txn -> Alcotest.(check bool) "trigger-store commit acked" true (Txn.durably_acked txn))
    trigger_txns

(* ------------------------------------------------------------------ *)

(* Seeded ack-ordering property: interleave commits on Group, Async and
   Quorum pipelines with site progress and ticks. Two invariants, checked
   after every step on every pipeline:

   - acks release in commit order — the acked transactions always form a
     prefix of the commit sequence;
   - an ack never releases before the commit is durable at the required
     number of sites: locally for Group/Async, and additionally on
     [n] of the fake replica sites for Quorum (each commit's ack needs a
     durable offset strictly beyond the pre-commit durable size). *)
let quorum_ack_order () =
  Seeds.with_seed "durability.quorum-ack-order" @@ fun seed ->
  let prng = Prng.create ~seed:(Int64.of_int seed) in
  let mk mode = make_store ~durability:mode () in
  let stores =
    [|
      ("group", mk (Commit_pipeline.Group { max_batch = 3; max_delay_ticks = 7 }));
      ("async", mk (Commit_pipeline.Async { max_lag = 64 }));
      ( "quorum",
        mk (Commit_pipeline.Quorum { n = 2; max_batch = 3; max_delay_ticks = 7 })
      );
    |]
  in
  (* Fake replica sites for the quorum store: each holds a durable
     offset that only advances when pumped, lagging the primary by a
     seeded amount. *)
  let _, (_, qstore) = stores.(2) in
  let sites = Array.make 3 0 in
  let pump () =
    let sorted = Array.copy sites in
    Array.sort (fun a b -> compare b a) sorted;
    Commit_pipeline.note_quorum_offset qstore.Store.pipeline sorted.(1)
  in
  Commit_pipeline.attach_shipper qstore.Store.pipeline pump;
  (* Per store: commits oldest-first, with the pre-commit durable size
     (the ack's durable-offset lower bound). *)
  let committed = Array.map (fun _ -> ref []) stores in
  let quorum_floor () =
    let sorted = Array.copy sites in
    Array.sort (fun a b -> compare b a) sorted;
    sorted.(1)
  in
  let check_invariants step =
    Array.iteri
      (fun si (name, (_, store)) ->
        let in_order = List.rev !(committed.(si)) in
        let durable = Wal.durable_size store.Store.wal in
        let boundary = ref false in
        List.iteri
          (fun i (txn, lower_bound) ->
            let acked = Txn.durably_acked txn in
            if acked && !boundary then
              Alcotest.failf "[%s] step %d: ack %d released out of commit order"
                name step i;
            if (not acked) && not !boundary then boundary := true;
            if acked then begin
              if lower_bound >= durable then
                Alcotest.failf
                  "[%s] step %d: ack %d released before local durability" name
                  step i;
              if name = "quorum" && lower_bound >= quorum_floor () then
                Alcotest.failf
                  "[%s] step %d: ack %d released before 2 sites held it" name
                  step i
            end)
          in_order)
      stores
  in
  for step = 1 to 400 do
    (match Prng.int prng 6 with
    | 0 | 1 ->
        (* one commit on a random pipeline *)
        let si = Prng.int prng (Array.length stores) in
        let _, (mgr, store) = stores.(si) in
        let lower_bound = Wal.durable_size store.Store.wal in
        let txn = commit_write mgr store (Printf.sprintf "p%d" step) in
        committed.(si) := (txn, lower_bound) :: !(committed.(si))
    | 2 ->
        (* a replica site persists more of the shipped stream *)
        let i = Prng.int prng (Array.length sites) in
        let durable = Wal.durable_size qstore.Store.wal in
        sites.(i) <- min durable (sites.(i) + 1 + Prng.int prng 96);
        pump ()
    | 3 ->
        let si = Prng.int prng (Array.length stores) in
        let _, (_, store) = stores.(si) in
        Commit_pipeline.flush store.Store.pipeline
    | _ ->
        Array.iter
          (fun (_, (_, store)) -> Commit_pipeline.tick store.Store.pipeline)
          stores);
    check_invariants step
  done;
  (* Drain: flush everything, let every site catch up — every commit must
     end up acked, still in order. *)
  Array.iter (fun (_, (_, store)) -> Commit_pipeline.flush store.Store.pipeline) stores;
  Array.iteri (fun i _ -> sites.(i) <- Wal.durable_size qstore.Store.wal) sites;
  pump ();
  check_invariants (-1);
  Array.iteri
    (fun si (name, _) ->
      List.iteri
        (fun i (txn, _) ->
          if not (Txn.durably_acked txn) then
            Alcotest.failf "[%s] commit %d never acked after drain" name i)
        (List.rev !(committed.(si))))
    stores

let suite =
  [
    Alcotest.test_case "mode strings" `Quick mode_strings;
    Alcotest.test_case "group defers acks until the batch flush" `Quick group_ack_deferral;
    Alcotest.test_case "tick deadline bounds batching delay" `Quick tick_deadline;
    Alcotest.test_case "async keeps a bounded unflushed window" `Quick async_lag_window;
    Alcotest.test_case "checkpoint drains the pipeline" `Quick checkpoint_drains;
    Alcotest.test_case "mode differential (seeded)" `Quick mode_differential;
    Alcotest.test_case "group-mode crash recovery" `Quick group_crash_recovery;
    Alcotest.test_case "sync flushes both stores past a fault" `Quick sync_survives_a_fault;
    Alcotest.test_case "quorum ack ordering (seeded)" `Quick quorum_ack_order;
  ]
