(* T6 — Triggers turn reads into writes (§6).

   "We also discovered that triggers turn read access into write access,
   increasing both the amount of time the transactions spend waiting for
   locks and the likelihood of deadlock."

   A read-only workload: 8 concurrent scripted transactions, each invoking
   the read-only method Check on shared objects (deterministic
   interleaving via the Workload scheduler). Without triggers every access
   is a shared lock and nothing ever waits. With one active trigger per
   object, every Check must advance the trigger's FSM — a write to its
   persistent TriggerState — so the same workload acquires exclusive
   locks, blocks, and deadlocks. *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value
module Workload = Ode_storage.Workload
module Lm = Ode_storage.Lock_manager
module Txn = Ode_storage.Txn
module Table = Ode_util.Table

let nobjects = 4
let steps_per_script = 6

let make_env ~with_triggers =
  let env = Session.create ~store:`Mem () in
  let check ctx _args = ctx.Session.get "v" in
  Session.define_class env ~name:"Doc"
    ~fields:[ ("v", Dsl.int 7) ]
    ~methods:[ ("Check", check) ]
    ~events:[ Dsl.after "Check" ]
    ~triggers:
      [
        (* Advances on every Check, so every posting writes the trigger
           state. The action is empty; the cost is purely the write. *)
        Dsl.trigger "Watch" ~perpetual:true ~event:"after Check, after Check"
          ~action:(fun _env _ctx -> ());
      ]
    ();
  let objects =
    Session.with_txn env (fun txn ->
        List.init nobjects (fun _ ->
            let obj = Session.pnew env txn ~cls:"Doc" () in
            if with_triggers then
              ignore (Session.activate env txn obj ~trigger:"Watch" ~args:[]);
            obj))
  in
  (env, Array.of_list objects)

let run_config ~nscripts ~with_triggers =
  let env, objects = make_env ~with_triggers in
  Session.reset_counters env;
  let script i =
    (* Scripts sweep the objects starting at different offsets, so lock
       acquisition orders differ — the classic deadlock shape. *)
    let steps =
      List.init steps_per_script (fun j ->
          let obj = objects.((i + j) mod nobjects) in
          let direction = if i mod 2 = 0 then obj else objects.(nobjects - 1 - ((i + j) mod nobjects)) in
          fun txn -> ignore (Session.invoke env txn direction "Check" []))
    in
    { Workload.label = Printf.sprintf "reader-%d" i; steps }
  in
  let report = Workload.run (Session.mgr env) (List.init nscripts script) in
  (report, Ode_util.Metrics.get (Lm.metrics (Txn.lock_mgr (Session.mgr env))))

let run () =
  Bench_common.section "T6" "lock amplification: read-only workload, with and without triggers";
  let table =
    Table.create
      ~columns:
        [
          ("configuration", Table.Left);
          ("readers", Table.Right);
          ("S locks", Table.Right);
          ("X locks", Table.Right);
          ("upgrades", Table.Right);
          ("lock waits", Table.Right);
          ("deadlocks", Table.Right);
          ("restarts", Table.Right);
        ]
  in
  let add label nscripts (report, lock) =
    Table.add_row table
      [
        label;
        string_of_int nscripts;
        string_of_int (lock "s_granted");
        string_of_int (lock "x_granted");
        string_of_int (lock "upgrades");
        string_of_int report.Workload.block_events;
        string_of_int (lock "deadlocks");
        string_of_int report.Workload.deadlock_restarts;
      ]
  in
  List.iter
    (fun nscripts ->
      add "reads only (no triggers)" nscripts (run_config ~nscripts ~with_triggers:false);
      add "reads + 1 trigger per object" nscripts (run_config ~nscripts ~with_triggers:true))
    [ 4; 8; 16 ];
  Table.print table;
  Bench_common.note
    "the same read-only workload: with triggers active, posting advances\n\
     persistent TriggerStates, so shared locks become exclusive ones and\n\
     the workload starts waiting and deadlocking (§6).\n"
