(* Deterministic cost pins: work counts that host noise cannot blur.

   On one mem session with the §4 credit-card schema and both of its
   triggers active on a card, a field read makes exactly one store read,
   and a Buy and a PayBill transaction make a pinned number: the object
   cursor reads the card once and logs one update for it, however many
   fields the methods, masks and actions touch. Registry counters are
   pinned exactly; allocation, which differs between OCaml versions,
   under a bound, or against a value recorded per OCaml version. A
   finished transaction leaves nothing behind in the session. *)

module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Opp = Ode.Opp
module Dsl = Ode.Dsl
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

(* How far [f] moves the named registry counters. *)
let deltas env names f =
  let read () = List.map (fun name -> List.assoc name (Session.counters env)) names in
  let before = read () in
  f ();
  List.map2 ( - ) (read ()) before

let record_reads env f = List.hd (deltas env [ "objects.reads" ] f)

let snapshot_read env card () =
  ignore (Session.with_snapshot env (fun txn -> Session.get_field env txn card "currBal"))

let read_counts () =
  let env, card, merchant = card_env () in
  Alcotest.(check int) "snapshot get_field" 1 (record_reads env (snapshot_read env card));
  Alcotest.(check int) "Buy" 1
    (record_reads env (fun () ->
         Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:1.0)));
  Alcotest.(check int) "PayBill, firing AutoRaiseLimit" 1
    (record_reads env (fun () ->
         Session.with_txn env (fun txn -> Credit_card.pay_bill env txn card ~amount:1.0)));
  Session.with_snapshot env (fun txn ->
      Alcotest.(check (float 0.0)) "AutoRaiseLimit fired" 1010.0 (Credit_card.limit env txn card))

(* What a transaction logs for the card: one update carrying the
   pre-transaction before-image and the final after-image. *)
let object_writes () =
  let env, card, merchant = card_env () in
  let check msg expected f =
    Alcotest.(check (list int))
      (msg ^ ": object reads, updates, WAL bytes")
      expected
      (deltas env [ "objects.reads"; "objects.updates"; "objects.wal_bytes" ] (fun () ->
           Session.with_txn env f))
  in
  check "Buy" [ 1; 1; 184 ] (fun txn -> Credit_card.buy env txn card ~merchant ~amount:1.0);
  check "PayBill" [ 1; 1; 184 ] (fun txn -> Credit_card.pay_bill env txn card ~amount:1.0);
  (* The shape of a wire_txn_write transaction. *)
  check "Buy, PayBill, get_field" [ 1; 1; 184 ] (fun txn ->
      Credit_card.buy env txn card ~merchant ~amount:1.0;
      Credit_card.pay_bill env txn card ~amount:1.0;
      ignore (Session.get_field env txn card "currBal"))

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

(* A trigger_fanin-shaped transaction: 8 posts to distinct objects
   that carry 16 activations each, over 32 events of which 19 concern no
   trigger; each firing bumps one field, one mask reads one. *)
let fan_schema =
  Printf.sprintf
    {|persistent class Fan {
  int f0 = 0; int f1 = 0; int f2 = 0; int f3 = 0; int f4 = 0;
  mask Even;
  event %s;
  trigger Seq(int k) : perpetual e0, e1 ==> bump_f0;
  trigger Either(int k) : perpetual end (e2 || e3), e4 ==> bump_f1;
  trigger After(int k) : relative(e5, e6) ==> bump_f2;
  trigger Burst(int k) : perpetual e7, +e8, e9 ==> bump_f3;
  trigger Masked(int k) : perpetual end e10 & Even ==> bump_f4;
};|}
    (String.concat ", " (List.init 32 (Printf.sprintf "e%d")))

let fan_bindings =
  let bump f : Session.action_impl =
   fun env ctx -> Dsl.obj_set env ctx f (Value.Int (Value.to_int (Dsl.obj_get env ctx f) + 1))
  in
  {
    Opp.no_bindings with
    actions = List.map (fun f -> ("bump_" ^ f, bump f)) [ "f0"; "f1"; "f2"; "f3"; "f4" ];
    masks = [ ("Even", fun env ctx -> Value.to_int (Dsl.obj_get env ctx "f4") mod 2 = 0) ];
  }

let fan_objects = 64

let fan_env () =
  let env = Session.create () in
  ignore (Opp.load env ~bindings:fan_bindings fan_schema);
  let oids =
    Session.with_txn env (fun txn ->
        Array.init fan_objects (fun _ ->
            let oid = Session.pnew env txn ~cls:"Fan" () in
            List.iter
              (fun (trigger, copies) ->
                for k = 1 to copies do
                  ignore (Session.activate env txn oid ~trigger ~args:[ Value.Int k ])
                done)
              [ ("Seq", 4); ("Either", 3); ("After", 3); ("Burst", 3); ("Masked", 3) ];
            oid))
  in
  (env, oids)

let fan_txn env oids i =
  Session.with_txn env (fun txn ->
      for j = 0 to 7 do
        let n = (8 * i) + j in
        Session.post_event env txn oids.(n mod fan_objects) (Printf.sprintf "e%d" (n * 7 mod 32))
      done)

(* Measured per OCaml version on the engine before the object cursor;
   the cursor may cost at most 1% on this shape, whose posts rarely
   touch an object twice. *)
let fan_words_recorded = [ ("5.1.1", 1534.2) ]

let fanin_words () =
  let env, oids = fan_env () in
  for i = 0 to 199 do
    fan_txn env oids i
  done;
  let n = 1000 in
  let before = Gc.minor_words () in
  for i = 200 to 199 + n do
    fan_txn env oids i
  done;
  let per_txn = (Gc.minor_words () -. before) /. float n in
  match List.assoc_opt Sys.ocaml_version fan_words_recorded with
  | None ->
      Printf.printf "fan-in word pin skipped: nothing recorded for OCaml %s (measured %.1f)\n"
        Sys.ocaml_version per_txn
  | Some recorded ->
      Printf.printf "fan-in transaction: %.1f minor words (recorded %.1f)\n" per_txn recorded;
      if per_txn > recorded *. 1.01 then
        Alcotest.failf "a fan-in transaction allocates %.1f minor words (recorded %.1f)" per_txn
          recorded

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
    Alcotest.test_case "object writes per transaction" `Quick object_writes;
    Alcotest.test_case "lock grants per transaction" `Quick lock_counts;
    Alcotest.test_case "lock cycle allocation bound" `Quick lock_cycle_words;
    Alcotest.test_case "snapshot get_field allocation bound" `Quick snapshot_read_words;
    Alcotest.test_case "fan-in transaction allocation" `Quick fanin_words;
    Alcotest.test_case "finished transactions leave no heap" `Quick finished_txns_leave_no_heap;
  ]
