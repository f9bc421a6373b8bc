(* Lock manager under interleaved multi-transaction schedules.

   [Test_lock] covers single-step compatibility and cycle shapes; per
   shard the manager now carries a whole session's 2PL, so these tests
   script longer interleavings — conflict hand-off chains, upgrade races,
   and release-ordering effects — and replay a seeded random schedule
   against a reference model of the S/X compatibility matrix. *)

module Lm = Ode_storage.Lock_manager
module Rid = Ode_storage.Rid

let key i = Lm.Record ("sched", Rid.of_int i)

let granted msg = function
  | Lm.Granted -> ()
  | Lm.Blocked holders ->
      Alcotest.failf "%s: unexpectedly blocked by %s" msg
        (String.concat "," (List.map string_of_int holders))

let blocked_by msg expected = function
  | Lm.Granted -> Alcotest.failf "%s: unexpectedly granted" msg
  | Lm.Blocked holders ->
      Alcotest.(check (slist int compare))
        (msg ^ ": blocking holders") expected holders

(* A conflict hand-off chain: writers t2 and t3 queue behind t1; each
   release grants exactly the next retry, in the scheduler's retry order,
   and never a transaction that still conflicts. *)
let handoff_chain () =
  let lm = Lm.create () in
  granted "t1 X k0" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  blocked_by "t2 waits on t1" [ 1 ] (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  blocked_by "t3 waits on t1" [ 1 ] (Lm.acquire lm ~txn:3 (key 0) Lm.S);
  Lm.release_all lm ~txn:1;
  (* The simulated scheduler retries blocked operations; t2 retries first
     and wins, t3 now conflicts with t2. *)
  granted "t2 acquires after release" (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  blocked_by "t3 now waits on t2" [ 2 ] (Lm.acquire lm ~txn:3 (key 0) Lm.S);
  Lm.release_all lm ~txn:2;
  granted "t3 finally granted" (Lm.acquire lm ~txn:3 (key 0) Lm.S);
  (* A reader joins, a writer must see both holders. *)
  granted "t4 shares" (Lm.acquire lm ~txn:4 (key 0) Lm.S);
  blocked_by "t5 sees both S holders" [ 3; 4 ] (Lm.acquire lm ~txn:5 (key 0) Lm.X)

(* Upgrade race: two readers both try to upgrade the same key. The first
   blocks on the second's S hold (upgrade denied while co-holders exist);
   when the co-holder releases, the upgrade is granted and the lock is
   exclusive. *)
let upgrade_race () =
  let lm = Lm.create () in
  granted "t1 S" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  granted "t2 S" (Lm.acquire lm ~txn:2 (key 0) Lm.S);
  blocked_by "t1 upgrade blocked by t2" [ 2 ] (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  (* The symmetric upgrade from t2 would close a t1<->t2 cycle. *)
  (match Lm.acquire lm ~txn:2 (key 0) Lm.X with
  | outcome ->
      Alcotest.failf "t2 upgrade should deadlock, got %s"
        (match outcome with Lm.Granted -> "granted" | Lm.Blocked _ -> "blocked")
  | exception Lm.Deadlock { victim; cycle } ->
      Alcotest.(check int) "requester is the victim" 2 victim;
      Alcotest.(check bool) "cycle names both upgraders" true
        (List.mem 1 cycle && List.mem 2 cycle));
  (* Victim aborts: its release lets the surviving upgrade through. *)
  Lm.release_all lm ~txn:2;
  granted "t1 upgrade proceeds" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  Alcotest.(check bool) "t1 now exclusive" true (Lm.holds lm ~txn:1 (key 0) = Some Lm.X);
  Alcotest.(check int) "one deadlock counted" 1 (Ode_util.Metrics.get (Lm.metrics lm) "deadlocks")

(* Release ordering: t1 holds k0 and k1; t2 waits on k0, t3 on k1, and
   t1 itself waits on t4's k3. Releasing everything at once must unblock
   both waiters regardless of acquisition order, and must cancel t1's own
   pending wait (t4 is idle, so the wait never closes a cycle). *)
let release_ordering () =
  let lm = Lm.create () in
  granted "t1 X k0" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  granted "t1 X k1" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  granted "t4 X k3" (Lm.acquire lm ~txn:4 (key 3) Lm.X);
  blocked_by "t2 waits k0" [ 1 ] (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  blocked_by "t3 waits k1" [ 1 ] (Lm.acquire lm ~txn:3 (key 1) Lm.S);
  (* t1 blocks on t4's k3 — a wait that release_all must cancel along
     with the holds, otherwise the waits-for graph keeps a dangling
     t1 -> t4 edge owned by a transaction that no longer exists. *)
  blocked_by "t1 waits k3" [ 4 ] (Lm.acquire lm ~txn:1 (key 3) Lm.S);
  Lm.release_all lm ~txn:1;
  granted "t2 proceeds on k0" (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  granted "t3 proceeds on k1" (Lm.acquire lm ~txn:3 (key 1) Lm.S);
  Alcotest.(check int) "t1 holds nothing" 0 (List.length (Lm.held_keys lm ~txn:1));
  (* t4 queues behind the new k0 holder: an ordinary block, and the
     cancelled t1 wait must not have left a deadlock behind. *)
  blocked_by "t4 queues behind t2" [ 2 ] (Lm.acquire lm ~txn:4 (key 0) Lm.X);
  Alcotest.(check int) "no deadlocks in this schedule" 0 (Ode_util.Metrics.get (Lm.metrics lm) "deadlocks")

(* Three-transaction rotating schedule over three keys: each txn holds
   one key and requests the next; the third request closes the 3-cycle
   and must name the full cycle. *)
let three_way_cycle () =
  let lm = Lm.create () in
  granted "t1 X k0" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  granted "t2 X k1" (Lm.acquire lm ~txn:2 (key 1) Lm.X);
  granted "t3 X k2" (Lm.acquire lm ~txn:3 (key 2) Lm.X);
  blocked_by "t1 -> t2" [ 2 ] (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  blocked_by "t2 -> t3" [ 3 ] (Lm.acquire lm ~txn:2 (key 2) Lm.X);
  (match Lm.acquire lm ~txn:3 (key 0) Lm.X with
  | _ -> Alcotest.fail "3-cycle not detected"
  | exception Lm.Deadlock { victim; cycle } ->
      Alcotest.(check int) "victim" 3 victim;
      Alcotest.(check (slist int compare)) "full cycle" [ 1; 2; 3 ] cycle);
  (* The victim's wait was cancelled before raising: after it aborts, the
     remaining chain drains in release order. *)
  Lm.release_all lm ~txn:3;
  granted "t2 proceeds" (Lm.acquire lm ~txn:2 (key 2) Lm.X);
  Lm.release_all lm ~txn:2;
  granted "t1 proceeds" (Lm.acquire lm ~txn:1 (key 1) Lm.X)

(* The two stores of a session share one manager, and a record key
   hashes by its rid alone: same-numbered rids of different stores share
   a bucket but must stay distinct locks. *)
let stores_share_rids () =
  let lm = Lm.create () in
  let obj = Lm.Record ("objects", Rid.of_int 7) and trg = Lm.Record ("triggers", Rid.of_int 7) in
  granted "t1 X objects/r7" (Lm.acquire lm ~txn:1 obj Lm.X);
  granted "t2 X triggers/r7" (Lm.acquire lm ~txn:2 trg Lm.X);
  Alcotest.(check bool) "t1 does not hold triggers/r7" true (Lm.holds lm ~txn:1 trg = None);
  Lm.release_all lm ~txn:1;
  Alcotest.(check bool) "t2 still holds triggers/r7" true (Lm.holds lm ~txn:2 trg = Some Lm.X);
  Alcotest.(check bool) "objects/r7 is free" true (Lm.holds lm ~txn:1 obj = None);
  blocked_by "t3 still waits on t2" [ 2 ] (Lm.acquire lm ~txn:3 trg Lm.S);
  granted "t3 takes objects/r7" (Lm.acquire lm ~txn:3 obj Lm.X)

(* Seeded random schedule vs a reference model. The model tracks holders
   per key ({txn, mode} sets) and derives grant/block from the S/X
   compatibility matrix, including sole-holder upgrades. Deadlock is not
   modelled (requests that block simply drop in the model, as the real
   scheduler's retry does), so schedules avoid mutual waits by releasing
   a blocked transaction's holds immediately with probability 1/2. Keys
   come from two stores whose rids overlap. *)
let random_schedule_vs_model () =
  Seeds.with_seed "lock_manager schedule" (fun seed ->
      let prng = Random.State.make [| seed; 0x10CC |] in
      let txns = 6 and keys = 4 and steps = 2000 in
      let key k = Lm.Record ((if k land 1 = 0 then "objects" else "triggers"), Rid.of_int (k / 2)) in
      let lm = Lm.create () in
      (* model: (key -> (txn * mode) list), no waits *)
      let holders = Array.make keys [] in
      let model_acquire txn k mode =
        let hs = holders.(k) in
        match List.assoc_opt txn hs with
        | Some Lm.X -> `Granted
        | Some Lm.S when mode = Lm.S -> `Granted
        | Some Lm.S ->
            (* upgrade: sole holder only *)
            if List.for_all (fun (t, _) -> t = txn) hs then begin
              holders.(k) <- (txn, Lm.X) :: List.remove_assoc txn hs;
              `Granted
            end
            else `Blocked (List.filter (fun (t, _) -> t <> txn) hs |> List.map fst)
        | None ->
            let conflicting =
              List.filter (fun (_, m) -> mode = Lm.X || m = Lm.X) hs |> List.map fst
            in
            if conflicting = [] then begin
              holders.(k) <- (txn, mode) :: hs;
              `Granted
            end
            else `Blocked conflicting
      in
      let model_release txn =
        Array.iteri (fun k hs -> holders.(k) <- List.filter (fun (t, _) -> t <> txn) hs) holders
      in
      for step = 1 to steps do
        let txn = 1 + Random.State.int prng txns in
        if Random.State.int prng 10 = 0 then begin
          model_release txn;
          Lm.release_all lm ~txn
        end
        else begin
          let k = Random.State.int prng keys in
          let mode = if Random.State.bool prng then Lm.S else Lm.X in
          let expected = model_acquire txn k mode in
          (match (expected, Lm.acquire lm ~txn (key k) mode) with
          | `Granted, Lm.Granted -> ()
          | `Blocked expect, Lm.Blocked got ->
              Alcotest.(check (slist int compare))
                (Printf.sprintf "step %d: blockers" step)
                expect got
          | `Granted, Lm.Blocked got ->
              Alcotest.failf "step %d: model granted, manager blocked by %s" step
                (String.concat "," (List.map string_of_int got))
          | `Blocked _, Lm.Granted -> Alcotest.failf "step %d: model blocked, manager granted" step
          | exception Lm.Deadlock _ ->
              (* The model has no waits-for graph; a detected cycle means
                 the victim aborts — mirror that in the model. *)
              model_release txn;
              Lm.release_all lm ~txn);
          (* Keep the waits-for graph acyclic-ish: a blocked transaction
             sometimes gives up all its locks (scheduler abort/retry). *)
          match expected with
          | `Blocked _ when Random.State.bool prng ->
              model_release txn;
              Lm.release_all lm ~txn
          | _ -> ()
        end
      done;
      (* Final consistency: every model holder is a manager holder with
         the same mode, and vice versa (via held_keys). *)
      Array.iteri
        (fun k hs ->
          List.iter
            (fun (txn, mode) ->
              Alcotest.(check bool)
                (Printf.sprintf "final: t%d holds k%d" txn k)
                true
                (Lm.holds lm ~txn (key k) = Some mode))
            hs)
        holders;
      for txn = 1 to txns do
        let manager_held = Lm.held_keys lm ~txn |> List.length in
        let model_held =
          Array.to_list holders
          |> List.concat_map (List.filter (fun (t, _) -> t = txn))
          |> List.length
        in
        Alcotest.(check int) (Printf.sprintf "final: t%d key count" txn) model_held manager_held
      done)

let suite =
  [
    Alcotest.test_case "conflict hand-off chain" `Quick handoff_chain;
    Alcotest.test_case "upgrade race resolves by victim abort" `Quick upgrade_race;
    Alcotest.test_case "release ordering unblocks all waiters" `Quick release_ordering;
    Alcotest.test_case "three-way cycle detection and drain" `Quick three_way_cycle;
    Alcotest.test_case "same rid in two stores" `Quick stores_share_rids;
    Alcotest.test_case "seeded schedule vs compatibility model" `Quick random_schedule_vs_model;
  ]
