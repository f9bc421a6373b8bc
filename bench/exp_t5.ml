(* T5 — Coupling modes (§4.2, §5.5): cost and transaction structure.

   One committed transaction invoking Touch once, with a single perpetual
   trigger on "after Touch" in each coupling mode. Reported per mode:
   wall cost per transaction, and how many extra (system) transactions one
   fire spawns — immediate/end run inline, dependent/!dependent each spawn
   a system transaction, phoenix spawns the drain scan plus one per
   entry. *)

open Bechamel
module Session = Ode.Session
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value
module Coupling = Ode_trigger.Coupling
module Txn = Ode_storage.Txn
module Table = Ode_util.Table

let make_env coupling =
  let env = Session.create ~store:`Mem () in
  let touch ctx _args =
    ctx.Session.set "n" (Value.Int (Value.to_int (ctx.Session.get "n") + 1));
    Value.Null
  in
  let triggers =
    match coupling with
    | None -> []
    | Some coupling ->
        [
          Dsl.trigger "T" ~perpetual:true ~coupling ~event:"after Touch"
            ~action:(fun _env _ctx -> ());
        ]
  in
  Session.define_class env ~name:"Counter"
    ~fields:[ ("n", Dsl.int 0) ]
    ~methods:[ ("Touch", touch) ]
    ~events:[ Dsl.after "Touch" ]
    ~triggers ();
  let obj =
    Session.with_txn env (fun txn ->
        let obj = Session.pnew env txn ~cls:"Counter" () in
        (match coupling with
        | None -> ()
        | Some _ -> ignore (Session.activate env txn obj ~trigger:"T" ~args:[]));
        obj)
  in
  (env, obj)

let one_txn env obj =
  Session.with_txn env (fun txn -> ignore (Session.invoke env txn obj "Touch" []))

let system_txns_per_fire env obj =
  let system_begun () = Ode_util.Metrics.get (Txn.metrics (Session.mgr env)) "system" in
  let before = system_begun () in
  for _ = 1 to 50 do
    one_txn env obj
  done;
  let after = system_begun () in
  float_of_int (after - before) /. 50.0

let run () =
  Bench_common.section "T5" "coupling modes: per-transaction cost and structure";
  let modes =
    [
      ("no trigger (baseline)", None);
      ("immediate", Some Coupling.Immediate);
      ("end (deferred)", Some Coupling.End);
      ("dependent", Some Coupling.Dependent);
      ("!dependent", Some Coupling.Independent);
      ("phoenix", Some Coupling.Phoenix);
    ]
  in
  let rows =
    List.map
      (fun (label, coupling) ->
        let env, obj = make_env coupling in
        let sys = system_txns_per_fire env obj in
        (label, env, obj, sys))
      modes
  in
  let tests =
    List.map
      (fun (label, env, obj, _) ->
        Test.make ~name:label (Staged.stage (fun () -> one_txn env obj)))
      rows
  in
  let results = Bench_common.run_tests ~quota:0.2 tests in
  let baseline = match results with (_, ns) :: _ -> ns | [] -> nan in
  let table =
    Table.create
      ~columns:
        [
          ("coupling mode", Table.Left);
          ("ns/txn", Table.Right);
          ("vs baseline", Table.Right);
          ("system txns/fire", Table.Right);
        ]
  in
  List.iter2
    (fun (label, _, _, sys) (_, ns) ->
      Table.add_row table
        [
          label;
          Bench_common.ns_cell ns;
          Bench_common.ratio_cell baseline ns;
          Printf.sprintf "%.1f" sys;
        ])
    rows results;
  Table.print table
