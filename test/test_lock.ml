(* Lock manager: compatibility, reentrancy, upgrades, deadlock cycles. *)

module Lm = Ode_storage.Lock_manager
module Rid = Ode_storage.Rid
module Metrics = Ode_util.Metrics

let key i = Lm.Record ("s", Rid.of_int i)

let check_granted msg outcome =
  match outcome with
  | Lm.Granted -> ()
  | Lm.Blocked holders ->
      Alcotest.failf "%s: unexpectedly blocked by %s" msg
        (String.concat "," (List.map string_of_int holders))

let check_blocked msg outcome =
  match outcome with Lm.Blocked _ -> () | Lm.Granted -> Alcotest.failf "%s: unexpectedly granted" msg

let compatibility () =
  let lm = Lm.create () in
  check_granted "t1 S" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  check_granted "t2 S shares" (Lm.acquire lm ~txn:2 (key 0) Lm.S);
  check_blocked "t3 X blocks on S holders" (Lm.acquire lm ~txn:3 (key 0) Lm.X);
  check_granted "t1 X elsewhere" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  check_blocked "t2 S blocks on X" (Lm.acquire lm ~txn:2 (key 1) Lm.S);
  check_blocked "t3 X blocks on X" (Lm.acquire lm ~txn:3 (key 1) Lm.X)

let reentrancy_and_upgrade () =
  let lm = Lm.create () in
  check_granted "S" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  check_granted "S again" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  check_granted "upgrade to X (sole holder)" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  check_granted "S under X" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  Alcotest.(check bool) "holds X" true (Lm.holds lm ~txn:1 (key 0) = Some Lm.X);
  (* Upgrade blocked when another S holder exists. *)
  check_granted "t1 S k1" (Lm.acquire lm ~txn:1 (key 1) Lm.S);
  check_granted "t2 S k1" (Lm.acquire lm ~txn:2 (key 1) Lm.S);
  check_blocked "t1 upgrade blocked" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  Alcotest.(check int) "upgrade counted once so far" 1 (Metrics.get (Lm.metrics lm) "upgrades")

let release_unblocks () =
  let lm = Lm.create () in
  check_granted "t1 X" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  check_blocked "t2 waits" (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  Lm.release_all lm ~txn:1;
  check_granted "t2 proceeds" (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  Alcotest.(check (option Alcotest.reject)) "t1 holds nothing"
    None
    (Option.map (fun _ -> ()) (Lm.holds lm ~txn:1 (key 0)));
  Alcotest.(check int) "t1 key list empty" 0 (List.length (Lm.held_keys lm ~txn:1))

let simple_deadlock () =
  let lm = Lm.create () in
  check_granted "t1 A" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  check_granted "t2 B" (Lm.acquire lm ~txn:2 (key 1) Lm.X);
  check_blocked "t1 waits B" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  (match Lm.acquire lm ~txn:2 (key 0) Lm.X with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Lm.Deadlock { victim; cycle } ->
      Alcotest.(check int) "victim is requester" 2 victim;
      Alcotest.(check bool) "cycle mentions both" true (List.mem 1 cycle || List.mem 2 cycle));
  Alcotest.(check int) "deadlock counted" 1 (Metrics.get (Lm.metrics lm) "deadlocks");
  (* After the victim backs off (releases), t1 can proceed. *)
  Lm.release_all lm ~txn:2;
  check_granted "t1 gets B" (Lm.acquire lm ~txn:1 (key 1) Lm.X)

let upgrade_deadlock () =
  (* Two S holders both trying to upgrade: the second request must die. *)
  let lm = Lm.create () in
  check_granted "t1 S" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  check_granted "t2 S" (Lm.acquire lm ~txn:2 (key 0) Lm.S);
  check_blocked "t1 upgrade waits" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  match Lm.acquire lm ~txn:2 (key 0) Lm.X with
  | _ -> Alcotest.fail "expected upgrade deadlock"
  | exception Lm.Deadlock { victim; _ } -> Alcotest.(check int) "victim" 2 victim

let three_party_cycle () =
  let lm = Lm.create () in
  check_granted "t1 A" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  check_granted "t2 B" (Lm.acquire lm ~txn:2 (key 1) Lm.X);
  check_granted "t3 C" (Lm.acquire lm ~txn:3 (key 2) Lm.X);
  check_blocked "t1 -> B" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  check_blocked "t2 -> C" (Lm.acquire lm ~txn:2 (key 2) Lm.X);
  match Lm.acquire lm ~txn:3 (key 0) Lm.X with
  | _ -> Alcotest.fail "expected 3-cycle deadlock"
  | exception Lm.Deadlock { victim; _ } -> Alcotest.(check int) "victim" 3 victim

let no_false_deadlock () =
  (* A chain (1 waits on 2 waits on 3) is not a cycle. *)
  let lm = Lm.create () in
  check_granted "t3 A" (Lm.acquire lm ~txn:3 (key 0) Lm.X);
  check_blocked "t2 waits t3" (Lm.acquire lm ~txn:2 (key 0) Lm.X);
  check_granted "t2 B" (Lm.acquire lm ~txn:2 (key 1) Lm.X);
  check_blocked "t1 waits t2" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  Alcotest.(check int) "no deadlocks" 0 (Metrics.get (Lm.metrics lm) "deadlocks")

let stats_counting () =
  let lm = Lm.create () in
  check_granted "" (Lm.acquire lm ~txn:1 (key 0) Lm.S);
  check_granted "" (Lm.acquire lm ~txn:1 (key 1) Lm.X);
  check_granted "" (Lm.acquire lm ~txn:1 (key 0) Lm.X);
  let s = Metrics.get (Lm.metrics lm) in
  Alcotest.(check int) "s_granted" 1 (s "s_granted");
  Alcotest.(check int) "x_granted" 2 (s "x_granted");
  Alcotest.(check int) "upgrades" 1 (s "upgrades");
  Metrics.reset (Lm.metrics lm);
  Alcotest.(check int) "reset" 0 (Metrics.get (Lm.metrics lm) "s_granted")

let suite =
  [
    Alcotest.test_case "compatibility matrix" `Quick compatibility;
    Alcotest.test_case "reentrancy and upgrade" `Quick reentrancy_and_upgrade;
    Alcotest.test_case "release unblocks" `Quick release_unblocks;
    Alcotest.test_case "two-party deadlock" `Quick simple_deadlock;
    Alcotest.test_case "upgrade deadlock" `Quick upgrade_deadlock;
    Alcotest.test_case "three-party cycle" `Quick three_party_cycle;
    Alcotest.test_case "wait chain is not a deadlock" `Quick no_false_deadlock;
    Alcotest.test_case "stats" `Quick stats_counting;
  ]
