(* T1 — Trigger overhead is paid only where triggers are (design goals
   3-4, §5.3).

   Per-invocation cost of the same Buy method on:
     volatile        a volatile CredCard (no txn, no locks, no posting)
     plain class     a persistent object of a class with no declared events
     0 active        a persistent CredCard with no activations
                     (events post, the index probe finds nothing)
     1 active        one never-firing AutoRaiseLimit activation
     8 active        eight activations (FSM advance + mask eval per event)

   Expected shape: volatile ≈ plain "method call" cost; declared events add
   a posting probe; each activation adds FSM-advance + state-write cost. *)

open Bechamel
module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Value = Ode_objstore.Value
module Table = Ode_util.Table

let define_plain env =
  (* Same shape as CredCard.Buy, but the class declares no events. *)
  let buy ctx args =
    ctx.Session.set "currBal"
      (Value.Float (Value.to_float (ctx.Session.get "currBal") +. Ode.Dsl.nth_float args 1));
    ctx.Session.set "purchases" (Value.Int (Value.to_int (ctx.Session.get "purchases") + 1));
    Value.Null
  in
  Session.define_class env ~name:"PlainCard"
    ~fields:[ ("currBal", Ode.Dsl.float 0.0); ("purchases", Ode.Dsl.int 0) ]
    ~methods:[ ("Buy", buy) ]
    ()

let run () =
  Bench_common.section "T1" "posting overhead: who pays for triggers";
  let env = Session.create ~store:`Mem () in
  Credit_card.define_all env;
  define_plain env;
  let txn = Session.begin_txn env in
  let customer = Credit_card.new_customer env txn ~name:"bench" in
  (* Huge limits so MoreCred's 80% threshold is never reached: masks are
     still evaluated, the triggers simply never fire. *)
  let card0 = Credit_card.new_card env txn ~customer ~limit:1e12 () in
  let card1 = Credit_card.new_card env txn ~customer ~limit:1e12 () in
  let card8 = Credit_card.new_card env txn ~customer ~limit:1e12 () in
  ignore (Session.activate env txn card1 ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 1.0 ]);
  for _ = 1 to 8 do
    ignore (Session.activate env txn card8 ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 1.0 ])
  done;
  let plain = Session.pnew env txn ~cls:"PlainCard" () in
  let vcard = Session.Volatile.vnew env ~cls:"CredCard" ~init:[ ("credLim", Value.Float 1e12) ] () in
  let args = [ Value.Null; Value.Float 1.0 ] in
  let tests =
    [
      Test.make ~name:"volatile object" (Staged.stage (fun () ->
          ignore (Session.Volatile.invoke env vcard "Buy" args)));
      Test.make ~name:"persistent, class without events" (Staged.stage (fun () ->
          ignore (Session.invoke env txn plain "Buy" args)));
      Test.make ~name:"persistent CredCard, 0 active triggers" (Staged.stage (fun () ->
          ignore (Session.invoke env txn card0 "Buy" args)));
      Test.make ~name:"persistent CredCard, 1 active trigger" (Staged.stage (fun () ->
          ignore (Session.invoke env txn card1 "Buy" args)));
      Test.make ~name:"persistent CredCard, 8 active triggers" (Staged.stage (fun () ->
          ignore (Session.invoke env txn card8 "Buy" args)));
    ]
  in
  let results = Bench_common.run_tests tests in
  let baseline = match results with (_, ns) :: _ -> ns | [] -> nan in
  let table =
    Table.create
      ~columns:
        [ ("configuration", Table.Left); ("ns/Buy", Table.Right); ("vs volatile", Table.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      Table.add_row table [ name; Bench_common.ns_cell ns; Bench_common.ratio_cell baseline ns ])
    results;
  Table.print table;
  let c = Ode_util.Metrics.get (Ode_trigger.Runtime.metrics (Session.runtime env)) in
  Printf.printf
    "runtime counters: posts=%d fsm_moves=%d mask_evals=%d state_writes=%d fires=%d\n"
    (c "posts") (c "fsm_moves") (c "mask_evals") (c "state_writes") (c "fires_immediate");
  Session.abort env txn
