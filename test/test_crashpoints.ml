(* Exhaustive crash-point recovery exploration (see Crashlab).

   The credit-card trigger workload is run once fault-free to learn the
   I/O-point address space, then re-run with an injected crash at every
   single I/O point (plus torn-write variants of every WAL flush and a
   stride of page writes). After each crash the database is recovered and
   every invariant is checked: committed effects durable, aborted and
   in-flight effects absent, recover_disk/recover_mem/committed_state in
   agreement, TriggerState rows consistent with surviving objects, and
   the recovered database still enforcing exactly the triggers it
   recovered. Every failure is reported with the odectl-replayable fault
   plan that produced it. *)

module Crashlab = Ode.Crashlab
module Session = Ode.Session
module Faults = Ode_storage.Faults
module Sweep = Ode_storage.Sweep

(* A smaller workload than Crashlab's default keeps the quadratic sweep
   (every crash point re-runs the workload) fast while still covering far
   more than 100 distinct I/O points. *)
let config seed = { Crashlab.default_config with txns = 12; seed }

let plan_of_string text =
  match Faults.plan_of_string text with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

let no_violations = function
  | [] -> ()
  | (plan, violation) :: rest ->
      Alcotest.failf "%d invariant violation(s); first: [--fault-plan %S] %s"
        (List.length rest + 1) plan violation

let fault_free_run () =
  Seeds.with_seed "crashpoints.fault-free" (fun seed ->
      let run = Crashlab.run ~config:(config seed) ~plan:[] () in
      Alcotest.(check bool) "completed" true (run.Crashlab.outcome = Crashlab.Completed);
      let points = Faults.point run.Crashlab.faults in
      Alcotest.(check bool)
        (Printf.sprintf "workload exposes >= 100 I/O points (got %d)" points)
        true (points >= 100);
      Alcotest.(check bool) "most transactions commit" true (run.Crashlab.committed >= 8);
      Alcotest.(check bool) "denied purchases happened" true (run.Crashlab.failed >= 1);
      (* Every storage site is represented, so the sweep exercises them
         all. *)
      List.iter
        (fun site ->
          if Faults.site_count run.Crashlab.faults site = 0 then
            Alcotest.failf "site %s never reported" (Faults.site_to_string site))
        [ Page_read; Page_write; Page_alloc; Pool_evict; Wal_flush; Lock_acquire ];
      (* The fault-free image passes every invariant too. *)
      Alcotest.(check (list string)) "clean run verifies" [] (Crashlab.verify run))

let deterministic_replay () =
  Seeds.with_seed "crashpoints.determinism" (fun seed ->
      let config = config seed in
      let plan = plan_of_string "crash@137" in
      let a = Crashlab.run ~config ~plan () in
      let b = Crashlab.run ~config ~plan () in
      (match (a.Crashlab.outcome, b.Crashlab.outcome) with
      | Crashlab.Crashed { point = pa; site = sa }, Crashlab.Crashed { point = pb; site = sb } ->
          Alcotest.(check int) "same crash point" pa pb;
          Alcotest.(check string) "same crash site" (Faults.site_to_string sa)
            (Faults.site_to_string sb);
          Alcotest.(check int) "crash at the addressed point" 137 pa
      | _ -> Alcotest.fail "crash@137 did not crash both runs");
      Alcotest.(check bool) "identical fired log" true
        (Faults.fired a.Crashlab.faults = Faults.fired b.Crashlab.faults);
      let ao, at = Session.image_wals a.Crashlab.image in
      let bo, bt = Session.image_wals b.Crashlab.image in
      Alcotest.(check bool) "identical durable objects WAL" true (Bytes.equal ao bo);
      Alcotest.(check bool) "identical durable triggers WAL" true (Bytes.equal at bt);
      (* Round-trip the plan through its string syntax. *)
      let again = plan_of_string (Faults.plan_to_string plan) in
      Alcotest.(check string) "plan round-trips" (Faults.plan_to_string plan)
        (Faults.plan_to_string again))

(* [pin] fixes the sweep's domain: the I/O points of the fault-free run
   and the plans built from them (a crash at each point, a torn variant
   of each WAL flush and of every 3rd page write). *)
let check_sweep ?pin config =
  let sweep = Crashlab.sweep ~config () in
  let points = Faults.point sweep.Sweep.baseline in
  (match pin with
  | Some pin -> Alcotest.(check (pair int int)) "points, plans" pin (points, sweep.Sweep.plans)
  | None ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep domain >= 100 crash points (got %d)" points)
        true (points >= 100);
      Alcotest.(check bool) "sweep covered the whole domain" true (sweep.Sweep.plans >= points));
  no_violations sweep.Sweep.violations

let exhaustive_sweep () = Seeds.with_seed "crashpoints.sweep" (fun s -> check_sweep (config s))
let sweep_domain_pinned () = check_sweep ~pin:(201, 222) { Crashlab.default_config with txns = 12 }

let transient_faults_survivable () =
  Seeds.with_seed "crashpoints.transient" (fun seed ->
      (* A lock-acquisition timeout is transient: the hit transaction
         aborts, the environment keeps running, and the final image still
         satisfies every invariant. *)
      let config = config seed in
      let plan = plan_of_string "fail@lock_acquire:40; fail@wal_flush:3" in
      let run = Crashlab.run ~config ~plan () in
      Alcotest.(check bool) "run completes despite transient faults" true
        (run.Crashlab.outcome = Crashlab.Completed);
      Alcotest.(check int) "both faults fired" 2 (List.length (Faults.fired run.Crashlab.faults));
      Alcotest.(check (list string)) "invariants hold" [] (Crashlab.verify run))

(* --------------------------------------------------------------------- *)
(* Group-commit crash sweep.

   Under Group/Async durability several commits become durable per log
   force, so Crashlab.verify's "durable WAL size is a commit clock"
   ledger matching does not apply. The invariant that does: a batch is
   atomic. The durable WAL after any crash must be a byte prefix of the
   fault-free run's (execution is deterministic up to the crash), and the
   set of committed transaction ids it implies must equal the committed
   set at some record boundary of that baseline log — a Commit_group is
   either entirely durable or entirely absent, never split. Recovery from
   every such image must also succeed and agree with the
   committed_state oracle (Session.recover runs it internally). *)

module Wal = Ode_storage.Wal
module Commit_pipeline = Ode_storage.Commit_pipeline
module Credit_card = Ode.Credit_card

let committed_ids records =
  let committed = Hashtbl.create 32 in
  List.iter
    (function
      | Wal.Commit txn -> Hashtbl.replace committed txn ()
      | Wal.Commit_group txns -> List.iter (fun txn -> Hashtbl.replace committed txn ()) txns
      | Wal.Abort txn -> Hashtbl.remove committed txn
      | _ -> ())
    records;
  Hashtbl.fold (fun txn () acc -> txn :: acc) committed [] |> List.sort compare

(* Committed-id set at every record boundary of [records]: the only sets a
   crash may expose. *)
let boundary_sets records =
  let rec go prefix_rev rest acc =
    let acc = committed_ids (List.rev prefix_rev) :: acc in
    match rest with [] -> acc | record :: rest -> go (record :: prefix_rev) rest acc
  in
  List.sort_uniq compare (go [] records [])

let is_bytes_prefix prefix whole =
  Bytes.length prefix <= Bytes.length whole
  && Bytes.equal prefix (Bytes.sub whole 0 (Bytes.length prefix))

let group_commit_sweep durability () =
  Seeds.with_seed "crashpoints.group-sweep" (fun seed ->
      let config = { (config seed) with Crashlab.durability } in
      let base = Crashlab.run ~config ~plan:[] () in
      Alcotest.(check bool) "baseline completes" true
        (base.Crashlab.outcome = Crashlab.Completed);
      let base_obj, base_trig = Session.image_wals base.Crashlab.image in
      let obj_sets = boundary_sets (Wal.decode_records base_obj) in
      let trig_sets = boundary_sets (Wal.decode_records base_trig) in
      let wal_flushes = Faults.site_count base.Crashlab.faults Wal_flush in
      Alcotest.(check bool)
        (Printf.sprintf "baseline batches commits (%d flushes for %d commits)" wal_flushes
           base.Crashlab.committed)
        true
        (wal_flushes < base.Crashlab.committed);
      (* Both a crash and a torn flush (fsync died mid-write, then the
         system died — Wal.flush ends it with torn_crash) leave a byte
         prefix of the deterministic baseline log, whose committed set is
         one of the baseline's record-boundary sets. *)
      let batch_atomic what base sets wal =
        let ids = committed_ids (Wal.decode_records wal) in
        (if is_bytes_prefix wal base then [] else [ what ^ " WAL is not a baseline prefix" ])
        @
        if List.mem ids sets then []
        else
          [
            Printf.sprintf "%s committed set {%s} splits a commit batch" what
              (String.concat ";" (List.map string_of_int ids));
          ]
      in
      let check_image image =
        let obj_wal, trig_wal = Session.image_wals image in
        batch_atomic "objects" base_obj obj_sets obj_wal
        @ batch_atomic "triggers" base_trig trig_sets trig_wal
        @
        match Session.recover image with
        | exception e -> [ "Session.recover raised " ^ Printexc.to_string e ]
        | env ->
            Credit_card.define_all env;
            []
      in
      (* Crash at, and tear, every WAL flush the baseline performs. *)
      let sweep =
        Sweep.sweep ~baseline:base.Crashlab.faults
          [ Site { site = Wal_flush; every = 1; acts = (fun _ -> [ Crash; Torn 0.5; Torn 0.9 ]) } ]
          (fun plan ->
            let result = Crashlab.run ~config ~plan () in
            (result.Crashlab.faults, check_image result.Crashlab.image))
      in
      Alcotest.(check int) "three plans per WAL flush" (3 * wal_flushes) sweep.Sweep.plans;
      no_violations sweep.Sweep.violations)

let suite =
  [
    Alcotest.test_case "fault-free workload and point space" `Quick fault_free_run;
    Alcotest.test_case "group-commit crash sweep (group:4)" `Quick
      (group_commit_sweep (Commit_pipeline.Group { max_batch = 4; max_delay_ticks = 64 }));
    Alcotest.test_case "group-commit crash sweep (async:3)" `Quick
      (group_commit_sweep (Commit_pipeline.Async { max_lag = 3 }));
    Alcotest.test_case "crash replay is deterministic" `Quick deterministic_replay;
    Alcotest.test_case "transient faults are survivable" `Quick transient_faults_survivable;
    Alcotest.test_case "exhaustive crash + torn sweep" `Slow exhaustive_sweep;
    Alcotest.test_case "sweep domain pinned at seed 222" `Quick sweep_domain_pinned;
  ]
