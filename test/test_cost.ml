(* Deterministic cost pins: work counts that host noise cannot blur.

   On one mem session with the §4 credit-card schema and both of its
   triggers active on a card, a field read makes exactly one store read,
   and a Buy and a PayBill transaction make a pinned number. Registry
   counters are pinned exactly; allocation, which differs between OCaml
   versions, only under a bound. A finished transaction leaves nothing
   behind in the session. *)

module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Value = Ode_objstore.Value

(* MoreCred() holds at this balance, so a Buy arms AutoRaiseLimit and the
   next PayBill fires it; DenyCredit's mask is evaluated but never
   vetoes. *)
let card_env () =
  let env = Session.create () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let merchant = Credit_card.new_merchant env txn ~name:"m" in
        let card =
          Session.pnew env txn ~cls:"CredCard"
            ~init:[ ("credLim", Value.Float 1000.0); ("currBal", Value.Float 850.0) ]
            ()
        in
        ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
        ignore (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 10.0 ]);
        (card, merchant))
  in
  (env, card, merchant)

let record_reads env f =
  let reads () = List.assoc "objects.reads" (Session.counters env) in
  let before = reads () in
  f ();
  reads () - before

let snapshot_read env card () =
  ignore (Session.with_snapshot env (fun txn -> Session.get_field env txn card "currBal"))

let read_counts () =
  let env, card, merchant = card_env () in
  Alcotest.(check int) "snapshot get_field" 1 (record_reads env (snapshot_read env card));
  Alcotest.(check int) "Buy" 11
    (record_reads env (fun () ->
         Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:1.0)));
  Alcotest.(check int) "PayBill, firing AutoRaiseLimit" 6
    (record_reads env (fun () ->
         Session.with_txn env (fun txn -> Credit_card.pay_bill env txn card ~amount:1.0)));
  Session.with_snapshot env (fun txn ->
      Alcotest.(check (float 0.0)) "AutoRaiseLimit fired" 1010.0 (Credit_card.limit env txn card))

(* Lock grants per transaction: one extra acquire on the commit path
   moves one of these. *)
let lock_grants env f =
  let grants () =
    List.map
      (fun name -> List.assoc ("locks." ^ name) (Session.counters env))
      [ "s_granted"; "x_granted"; "upgrades" ]
  in
  let before = grants () in
  f ();
  List.map2 ( - ) (grants ()) before

let lock_counts () =
  let env, card, merchant = card_env () in
  let check msg expected f =
    Alcotest.(check (list int)) (msg ^ ": S, X, upgrades") expected (lock_grants env f)
  in
  check "Buy" [ 3; 2; 2 ] (fun () ->
      Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:1.0));
  check "PayBill, firing AutoRaiseLimit" [ 2; 2; 2 ] (fun () ->
      Session.with_txn env (fun txn -> Credit_card.pay_bill env txn card ~amount:1.0))

(* One trigger_fanin transaction's lock traffic on a bare manager: 8
   object S, 7 trigger S, 6 trigger upgrades and one object X, then the
   commit's release_all. Keys are built per request, as the stores do. *)
module Lm = Ode_storage.Lock_manager

let lock_cycle lm txn =
  let base = txn * 16 land 0xffff in
  let obj i = Lm.Record ("objects", Ode_storage.Rid.of_int (base + i)) in
  let trg i = Lm.Record ("triggers", Ode_storage.Rid.of_int (base + i)) in
  let acquire key mode =
    match Lm.acquire lm ~txn key mode with
    | Lm.Granted -> ()
    | Lm.Blocked _ -> Alcotest.fail "a lone transaction blocked"
  in
  for i = 0 to 7 do
    acquire (obj i) Lm.S
  done;
  for i = 0 to 6 do
    acquire (trg i) Lm.S
  done;
  for i = 0 to 5 do
    acquire (trg i) Lm.X
  done;
  acquire (obj 8) Lm.X;
  Lm.release_all lm ~txn

let lock_cycle_words () =
  let lm = Lm.create () in
  for txn = 1 to 1_000 do
    lock_cycle lm txn
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for txn = 1 to n do
    lock_cycle lm txn
  done;
  let per_txn = (Gc.minor_words () -. before) /. float n in
  if per_txn > 480.0 then Alcotest.failf "a 22-request lock cycle allocates %.1f minor words" per_txn

let snapshot_read_words () =
  let env, card, _ = card_env () in
  for _ = 1 to 100 do
    snapshot_read env card ()
  done;
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    snapshot_read env card ()
  done;
  let per_read = (Gc.minor_words () -. before) /. float n in
  if per_read > 200.0 then Alcotest.failf "a snapshot get_field allocates %.1f minor words" per_read

let finished_txns_leave_no_heap () =
  let env = Session.create () in
  let run n =
    for _ = 1 to n do
      Session.with_txn env ignore
    done
  in
  run 1_000;
  let reachable () = Obj.reachable_words (Obj.repr env) in
  let before = reachable () in
  run 100_000;
  let grown_bytes = (reachable () - before) * (Sys.word_size / 8) in
  if grown_bytes > 64 * 1024 then
    Alcotest.failf "100k empty transactions grew the session by %d bytes" grown_bytes

let suite =
  [
    Alcotest.test_case "record reads per operation" `Quick read_counts;
    Alcotest.test_case "lock grants per transaction" `Quick lock_counts;
    Alcotest.test_case "lock cycle allocation bound" `Quick lock_cycle_words;
    Alcotest.test_case "snapshot get_field allocation bound" `Quick snapshot_read_words;
    Alcotest.test_case "finished transactions leave no heap" `Quick finished_txns_leave_no_heap;
  ]
