(* The sharded engine against a sequential reference executor, plus a
   Crashlab-style fleet crash sweep.

   The differential runs one seeded schedule (>= 500 posts: deposits,
   overdrafting withdrawals that abort through a trigger, and cross-shard
   Bonus forwards) through (a) a ~40-line sequential reference executor —
   a plain [Session] with the round/envelope protocol inlined — and
   (b) [Sharded] fleets at K in {1, 2, 4} (plus ODE_SHARDS when set) in
   Deterministic mode. Committed per-card state, per-card trigger-firing
   logs and commit/abort/forward counts must agree exactly; at K=1 the
   durable WAL bytes must be bit-identical to the reference session.

   The crash sweep arms shard 1's private fault plane with a crash at
   every WAL-flush point of a fault-free baseline, recovers the whole
   fleet from its crash images, and checks every shard's state against a
   per-round ledger — including that the recovered triggers still fire. *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Sharded = Ode_parallel.Sharded
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module Intern = Ode_event.Intern
module Faults = Ode_storage.Faults
module Sweep = Ode_storage.Sweep
module Cp = Ode_storage.Commit_pipeline

(* ------------------------------------------------------------------ *)
(* Shared schema: an account class with an aborting trigger (Overdraft),
   a user-event trigger (BonusWatch — the cross-shard forward target) and
   a per-commit tally trigger (DepWatch). [logf] receives one line per
   firing, prefixed "<tag>|" so logs can be replayed per card. *)

let define_schema ~logf env =
  let m_dep (ctx : Session.method_ctx) args =
    ctx.Session.set "bal" (Value.Float (Dsl.self_float ctx "bal" +. Dsl.nth_float args 0));
    ctx.Session.set "deps" (Value.Int (Dsl.self_int ctx "deps" + 1));
    Value.Null
  in
  let m_wd (ctx : Session.method_ctx) args =
    ctx.Session.set "bal" (Value.Float (Dsl.self_float ctx "bal" -. Dsl.nth_float args 0));
    Value.Null
  in
  let m_mark (ctx : Session.method_ctx) _args =
    ctx.Session.set "marks" (Value.Int (Dsl.self_int ctx "marks" + 1));
    Value.Null
  in
  let tag env ctx = Value.to_int (Dsl.obj_get env ctx "tag") in
  Session.define_class env ~name:"Acct"
    ~fields:
      [
        ("tag", Dsl.int (-1));
        ("bal", Dsl.float 0.0);
        ("deps", Dsl.int 0);
        ("marks", Dsl.int 0);
      ]
    ~methods:[ ("Dep", m_dep); ("Wd", m_wd); ("Mark", m_mark) ]
    ~events:[ Dsl.after "Dep"; Dsl.after "Wd"; Dsl.user_event "Bonus" ]
    ~masks:[ ("Neg", fun env ctx -> Dsl.obj_float env ctx "bal" < 0.0) ]
    ~triggers:
      [
        Dsl.trigger "Overdraft" ~perpetual:true ~event:"after Wd & Neg"
          ~action:(fun env ctx ->
            logf (Printf.sprintf "%d|overdraft %.2f" (tag env ctx) (Dsl.obj_float env ctx "bal"));
            ignore (Dsl.obj_invoke env ctx "Mark" []);
            Session.tabort ());
        Dsl.trigger "BonusWatch" ~perpetual:true ~event:"Bonus"
          ~action:(fun env ctx ->
            let amt = Value.to_float (Dsl.event_arg ctx 0) in
            logf (Printf.sprintf "%d|bonus %.2f" (tag env ctx) amt);
            ignore (Dsl.obj_invoke env ctx "Dep" [ Value.Float amt ]));
        Dsl.trigger "DepWatch" ~perpetual:true ~event:"after Dep"
          ~action:(fun env ctx -> ignore (Dsl.obj_invoke env ctx "Mark" []));
      ]
    ()

let setup_body session oids i txn =
  let o =
    Session.pnew session txn ~cls:"Acct"
      ~init:[ ("tag", Value.Int i); ("bal", Value.Float 100.0) ]
      ()
  in
  ignore (Session.activate session txn o ~trigger:"Overdraft" ~args:[]);
  ignore (Session.activate session txn o ~trigger:"BonusWatch" ~args:[]);
  ignore (Session.activate session txn o ~trigger:"DepWatch" ~args:[]);
  oids.(i) <- Some o

(* ------------------------------------------------------------------ *)
(* The schedule: pure data, so every executor replays the same input. *)

type op =
  | Dep of int * float
  | Wd of int * float  (* big enough to overdraft sometimes -> abort *)
  | Bonus of int * int * float  (* src task forwards a Bonus to dst *)

let op_key = function Dep (c, _) | Wd (c, _) -> c | Bonus (src, _, _) -> src

let op_body session oid_of
    (forward : ?payload:Value.t list -> obj:Oid.t -> event:int -> unit -> unit) txn = function
  | Dep (c, amt) -> ignore (Session.invoke session txn (oid_of c) "Dep" [ Value.Float amt ])
  | Wd (c, amt) -> ignore (Session.invoke session txn (oid_of c) "Wd" [ Value.Float amt ])
  | Bonus (src, dst, amt) ->
      ignore (Session.invoke session txn (oid_of src) "Dep" [ Value.Float 1.0 ]);
      (* The event id comes from a local object of the same class — the
         destination object lives on another shard and cannot be read. *)
      let ev = Session.user_event_id session txn (oid_of src) "Bonus" in
      forward ~payload:[ Value.Float amt ] ~obj:(oid_of dst) ~event:ev ()

let ncards = 12

let gen_schedule prng ~rounds ~per_round =
  List.init rounds (fun _ ->
      List.init per_round (fun _ ->
          let c = Random.State.int prng ncards in
          match Random.State.int prng 10 with
          | 0 | 1 -> Wd (c, 50.0 +. float_of_int (Random.State.int prng 250))
          | 2 | 3 | 4 ->
              let d = Random.State.int prng ncards in
              Bonus (c, d, 1.0 +. float_of_int (Random.State.int prng 20))
          | _ -> Dep (c, 1.0 +. float_of_int (Random.State.int prng 50))))

(* One line per card; [active_triggers] length pins activation survival. *)
let render_card session oid i =
  Session.with_txn session (fun txn ->
      Printf.sprintf "%d: bal=%.2f deps=%d marks=%d acts=%d" i
        (Value.to_float (Session.get_field session txn oid "bal"))
        (Value.to_int (Session.get_field session txn oid "deps"))
        (Value.to_int (Session.get_field session txn oid "marks"))
        (List.length (Session.active_triggers session txn oid)))

let per_card c entries =
  List.filter (String.starts_with ~prefix:(string_of_int c ^ "|")) entries

(* ------------------------------------------------------------------ *)
(* Sequential reference executor: one Session, the round/envelope
   protocol inlined. Mirrors [Sharded]'s Deterministic mode exactly:
   within a round, the previous round's envelopes in (seq, emit) order,
   then the round's tasks in submission order; forwards buffered during a
   task, released on commit, dropped on abort. *)

type ref_env = {
  re_obj : Oid.t;
  re_event : int;
  re_payload : Value.t list;
  re_seq : int;
  re_emit : int;
}

type run_result = {
  r_state : string list;
  r_log : string list;  (* chronological *)
  r_committed : int;
  r_aborted : int;
  r_forwards : int;
  r_wals : (bytes * bytes) option;  (* objects/triggers WALs after crash *)
}

let run_reference ~schedule =
  let log = ref [] in
  let env = Session.create ~store:`Mem ~durability:Cp.Immediate () in
  define_schema ~logf:(fun m -> log := m :: !log) env;
  let oids = Array.make ncards None in
  let oid i = Option.get oids.(i) in
  let committed = ref 0 and aborted = ref 0 and forwards = ref 0 in
  let next_seq = ref 0 in
  let queued = ref [] (* (seq, task) newest first *) in
  let envelopes = ref [] in
  let submit task =
    queued := (!next_seq, task) :: !queued;
    incr next_seq
  in
  let apply_envelope e =
    match
      Session.with_txn env (fun txn ->
          if Session.exists env txn e.re_obj then
            Session.post_event_id ~args:e.re_payload env txn e.re_obj ~event:e.re_event)
    with
    | () -> incr committed
    | exception Session.Aborted -> incr aborted
  in
  let run_task (seq, task) =
    let emitted = ref 0 and buffered = ref [] in
    let forward ?(payload = []) ~obj ~event () =
      buffered :=
        { re_obj = obj; re_event = event; re_payload = payload; re_seq = seq; re_emit = !emitted }
        :: !buffered;
      incr emitted
    in
    match Session.with_txn env (fun txn -> task forward txn) with
    | () ->
        incr committed;
        forwards := !forwards + List.length !buffered;
        envelopes := List.rev_append !buffered !envelopes
    | exception Session.Aborted -> incr aborted
  in
  let barrier () =
    let envs =
      List.sort (fun a b -> compare (a.re_seq, a.re_emit) (b.re_seq, b.re_emit)) !envelopes
    in
    envelopes := [];
    let runs = List.rev !queued in
    queued := [];
    List.iter apply_envelope envs;
    List.iter run_task runs
  in
  for i = 0 to ncards - 1 do
    submit (fun _forward txn -> setup_body env oids i txn)
  done;
  barrier ();
  List.iter
    (fun round ->
      List.iter (fun op -> submit (fun forward txn -> op_body env oid forward txn op)) round;
      barrier ())
    schedule;
  while !queued <> [] || !envelopes <> [] do
    barrier ()
  done;
  Session.sync env;
  let state = List.init ncards (fun i -> render_card env (oid i) i) in
  let obj_wal, trig_wal = Session.image_wals (Session.crash env) in
  {
    r_state = state;
    r_log = List.rev !log;
    r_committed = !committed;
    r_aborted = !aborted;
    r_forwards = !forwards;
    r_wals = Some (obj_wal, trig_wal);
  }

(* ------------------------------------------------------------------ *)
(* The same schedule through a K-shard fleet. *)

type sharded_result = {
  s_run : run_result;
  s_logs : string list array;  (* chronological, per shard *)
  s_stats : Sharded.fleet_stats;
  s_per : Sharded.shard_stats list;
}

let run_sharded ~mode ~k ~schedule =
  let logs = Array.init k (fun _ -> ref []) in
  let schema ~shard s =
    define_schema ~logf:(fun m -> logs.(shard) := m :: !(logs.(shard))) s
  in
  let fleet =
    Sharded.create ~store:`Mem ~durability:Cp.Immediate ~shards:k ~mode ~schema ()
  in
  let oids = Array.make ncards None in
  let oid i = Option.get oids.(i) in
  for i = 0 to ncards - 1 do
    Sharded.submit fleet ~key:i (fun ctx txn -> setup_body ctx.Sharded.session oids i txn)
  done;
  Sharded.barrier fleet;
  (* Free mode has no barrier: quiesce so every card exists before any
     task closure dereferences a foreign card's oid. *)
  if mode = Sharded.Free then Sharded.sync fleet;
  List.iter
    (fun round ->
      List.iter
        (fun op ->
          Sharded.submit fleet ~key:(op_key op) (fun ctx txn ->
              op_body ctx.Sharded.session oid ctx.Sharded.forward txn op))
        round;
      Sharded.barrier fleet)
    schedule;
  Sharded.sync fleet;
  Alcotest.(check (list (pair int string))) "no crashed shards" [] (Sharded.crashed_shards fleet);
  Alcotest.(check (list (pair int string))) "no task failures" [] (Sharded.failures fleet);
  let stats = Sharded.stats fleet in
  let per = Sharded.shard_stats fleet in
  let state =
    List.init ncards (fun i -> Sharded.with_shard fleet ~key:i (fun s -> render_card s (oid i) i))
  in
  let wals =
    if k = 1 then Some (Sharded.image_wals (Sharded.crash fleet) 0)
    else begin
      Sharded.shutdown fleet;
      None
    end
  in
  {
    s_run =
      {
        r_state = state;
        r_log = [];
        r_committed = stats.Sharded.fs_committed;
        r_aborted = stats.Sharded.fs_aborted;
        r_forwards = stats.Sharded.fs_forwards;
        r_wals = wals;
      };
    s_logs = Array.map (fun l -> List.rev !l) logs;
    s_stats = stats;
    s_per = per;
  }

let shard_counts () =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "ODE_SHARDS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 && not (List.mem k base) -> base @ [ k ]
      | _ -> base)
  | None -> base

let differential () =
  Seeds.with_seed "parallel.differential" (fun seed ->
      let prng = Random.State.make [| seed; 0x5AAD |] in
      let schedule = gen_schedule prng ~rounds:40 ~per_round:13 in
      let ops = List.concat schedule in
      Alcotest.(check bool)
        (Printf.sprintf "schedule has >= 500 posts (got %d)" (List.length ops))
        true
        (List.length ops >= 500);
      let reference = run_reference ~schedule in
      Alcotest.(check bool) "schedule produced aborts" true (reference.r_aborted > 0);
      Alcotest.(check bool) "schedule produced forwards" true (reference.r_forwards > 0);
      List.iter
        (fun k ->
          let s = run_sharded ~mode:Sharded.Deterministic ~k ~schedule in
          Alcotest.(check (list string))
            (Printf.sprintf "K=%d committed state" k)
            reference.r_state s.s_run.r_state;
          for c = 0 to ncards - 1 do
            Alcotest.(check (list string))
              (Printf.sprintf "K=%d card %d firing log" k c)
              (per_card c reference.r_log)
              (per_card c s.s_logs.(c mod k))
          done;
          Alcotest.(check int) (Printf.sprintf "K=%d committed" k) reference.r_committed
            s.s_run.r_committed;
          Alcotest.(check int) (Printf.sprintf "K=%d aborted" k) reference.r_aborted
            s.s_run.r_aborted;
          Alcotest.(check int) (Printf.sprintf "K=%d forwards" k) reference.r_forwards
            s.s_run.r_forwards;
          if k = 1 then begin
            let ro, rt = Option.get reference.r_wals in
            let so, st = Option.get s.s_run.r_wals in
            Alcotest.(check bool) "K=1 objects WAL bit-identical" true (Bytes.equal ro so);
            Alcotest.(check bool) "K=1 triggers WAL bit-identical" true (Bytes.equal rt st)
          end;
          Alcotest.(check bool)
            (Printf.sprintf "K=%d every shard did work" k)
            true
            (List.for_all (fun ss -> ss.Sharded.ss_tasks > 0) s.s_per))
        (shard_counts ()))

(* Free mode gives no ordering promise; check liveness and accounting:
   everything drains, every sealed envelope is delivered exactly once,
   and every task either commits or aborts. *)
let free_mode_drains () =
  Seeds.with_seed "parallel.free" (fun seed ->
      let prng = Random.State.make [| seed; 0xF4EE |] in
      let schedule = gen_schedule prng ~rounds:20 ~per_round:10 in
      let s = run_sharded ~mode:Sharded.Free ~k:4 ~schedule in
      let st = s.s_stats in
      let per = st.Sharded.fs_tasks in
      Alcotest.(check int) "every submission consumed"
        (ncards + List.length (List.concat schedule))
        per;
      Alcotest.(check bool) "forwards happened" true (st.Sharded.fs_forwards > 0);
      Alcotest.(check int) "tasks + envelopes all accounted"
        (st.Sharded.fs_tasks + st.Sharded.fs_forwards)
        (st.Sharded.fs_committed + st.Sharded.fs_aborted);
      Alcotest.(check bool) "mailbox high-water observed" true (st.Sharded.fs_mailbox_hwm > 0))

let latencies_recorded () =
  let schema ~shard:_ s = define_schema ~logf:ignore s in
  let fleet =
    Sharded.create ~store:`Mem ~shards:2 ~mode:Sharded.Deterministic ~schema ()
  in
  let oids = Array.make 2 None in
  for i = 0 to 1 do
    Sharded.submit fleet ~key:i (fun ctx txn -> setup_body ctx.Sharded.session oids i txn)
  done;
  Sharded.barrier fleet;
  for i = 0 to 9 do
    Sharded.submit fleet ~key:i (fun ctx txn ->
        ignore
          (Session.invoke ctx.Sharded.session txn
             (Option.get oids.(i mod 2))
             "Dep"
             [ Value.Float 1.0 ]))
  done;
  Sharded.sync fleet;
  let lats = Sharded.latencies fleet in
  Alcotest.(check int) "one latency per task" 12 (List.length lats);
  Alcotest.(check bool) "latencies are non-negative" true (List.for_all (fun l -> l >= 0.0) lats);
  Sharded.shutdown fleet

(* ------------------------------------------------------------------ *)
(* Event-id agreement. Shards are built concurrently, each on a fresh
   intern table; the fleet compares every shard's snapshot with shard 0's
   once all are built. *)

let plain_schema ~shard:_ s = define_schema ~logf:ignore s

let crashed_image k =
  Sharded.crash (Sharded.create ~shards:k ~mode:Sharded.Deterministic ~schema:plain_schema ())

(* [schema] is rejected with [Invalid_argument] by both create and
   recover. *)
let rejected what schema =
  let check side build =
    match build () with
    | fleet ->
        Sharded.shutdown fleet;
        Alcotest.failf "%s accepted by %s" what side
    | exception Invalid_argument _ -> ()
  in
  check "create" (fun () -> Sharded.create ~shards:2 ~mode:Sharded.Deterministic ~schema ());
  check "recover" (fun () -> Sharded.recover ~mode:Sharded.Deterministic ~schema (crashed_image 2))

let intern_handshake () =
  let env = Session.create () in
  define_schema ~logf:ignore env;
  let snap = Intern.snapshot (Session.intern env) in
  Alcotest.(check bool) "snapshot non-empty" true (snap <> []);
  Alcotest.(check bool) "of_snapshot round-trips" true
    (Intern.equal_snapshot snap (Intern.snapshot (Intern.of_snapshot snap)));
  rejected "a shard-local extra class" (fun ~shard s ->
      (* The Rogue class steals event ids on shard 1 only. *)
      if shard = 1 then Session.define_class s ~name:"Rogue" ~events:[ Dsl.user_event "X" ] ();
      define_schema ~logf:ignore s)

(* The same classes in another order on shard 1 assign other ids: every
   table numbers events by first sight. *)
let reordered_schema_rejected () =
  let other s = Session.define_class s ~name:"Other" ~events:[ Dsl.user_event "Y" ] () in
  rejected "a reordered schema" (fun ~shard s ->
      if shard = 1 then begin
        other s;
        define_schema ~logf:ignore s
      end
      else begin
        define_schema ~logf:ignore s;
        other s
      end)

(* A raising schema callback is re-raised by create and recover only
   after every builder is joined: the other shards' callbacks, which
   sleep first, have all finished by then. Repeated, then a normal fleet
   is built, so leaked builder domains would show. *)
let builder_failure_reraised () =
  let k = 4 in
  let image = crashed_image k in
  let attempt ~failing side build =
    let what = Printf.sprintf "%s, shard %d raises" side failing in
    let finished = Atomic.make 0 in
    let schema ~shard s =
      if shard = failing then failwith "schema failed";
      Unix.sleepf 0.002;
      define_schema ~logf:ignore s;
      Atomic.incr finished
    in
    (match build schema with
    | fleet ->
        Sharded.shutdown fleet;
        Alcotest.failf "%s: fleet built" what
    | exception Failure m -> Alcotest.(check string) (what ^ ": re-raised") "schema failed" m);
    Alcotest.(check int) (what ^ ": every other builder joined") (k - 1) (Atomic.get finished)
  in
  for _ = 1 to 20 do
    List.iter
      (fun failing ->
        attempt ~failing "create" (fun schema ->
            Sharded.create ~shards:k ~mode:Sharded.Deterministic ~schema ());
        attempt ~failing "recover" (fun schema ->
            Sharded.recover ~mode:Sharded.Deterministic ~schema image))
      [ 0; k - 1 ]
  done;
  Sharded.shutdown (Sharded.create ~shards:k ~mode:Sharded.Deterministic ~schema:plain_schema ())

(* One domain per shard for its whole life: at K=4, on create and on
   recover, each shard's schema callback runs on the same domain as a
   task later submitted to that shard, and none runs on the caller's. *)
let shards_build_on_own_domains () =
  let k = 4 in
  let caller = (Domain.self () :> int) in
  let check side build =
    let built = Array.make k (-1) and served = Array.make k (-1) in
    let schema ~shard s =
      built.(shard) <- (Domain.self () :> int);
      define_schema ~logf:ignore s
    in
    let fleet = build schema in
    for key = 0 to k - 1 do
      Sharded.submit fleet ~key (fun ctx _ -> served.(ctx.Sharded.shard) <- (Domain.self () :> int))
    done;
    Sharded.sync fleet;
    Array.iteri
      (fun i d ->
        Alcotest.(check int) (Printf.sprintf "%s: shard %d served where it was built" side i) d
          served.(i);
        Alcotest.(check bool)
          (Printf.sprintf "%s: shard %d not built on the caller's domain" side i)
          true (d <> caller))
      built;
    Alcotest.(check int) (side ^ ": one domain per shard") k
      (List.length (List.sort_uniq compare (Array.to_list built)));
    fleet
  in
  let fleet =
    check "create" (fun schema -> Sharded.create ~shards:k ~mode:Sharded.Deterministic ~schema ())
  in
  let image = Sharded.crash fleet in
  Sharded.shutdown
    (check "recover" (fun schema -> Sharded.recover ~mode:Sharded.Deterministic ~schema image))

(* [Domain.self] ids count spawns, so a probe domain spawned and joined
   before and after [f] brackets the domains [f] spawned. *)
let domains_spawned f =
  let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  let before = probe () in
  let x = f () in
  (x, probe () - before - 1)

let fleet_spawns_k_domains () =
  List.iter
    (fun k ->
      let fleet, n =
        domains_spawned (fun () ->
            Sharded.create ~shards:k ~mode:Sharded.Deterministic ~schema:plain_schema ())
      in
      Alcotest.(check int) (Printf.sprintf "create at K=%d" k) k n;
      let image = Sharded.crash fleet in
      let fleet, n =
        domains_spawned (fun () ->
            Sharded.recover ~mode:Sharded.Deterministic ~schema:plain_schema image)
      in
      Alcotest.(check int) (Printf.sprintf "recover at K=%d" k) k n;
      Sharded.shutdown fleet)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Fleet crash sweep (Crashlab-style): K=2 disk-backed shards, one
   deposit per shard per round under Immediate durability, so the
   per-shard ledger has per-transaction granularity:

     after n rounds: bal = 100 + 5n(n+1) + n*s, deps = n, marks = n.

   A fault-free baseline counts shard 1's WAL-flush points; the sweep
   then crashes shard 1 at each of them in turn, recovers the whole
   fleet from its crash images, and checks: shard 0 is complete, shard 1
   sits exactly on a ledger row, and the recovered triggers still run. *)

let sweep_rounds = 8

let ledger_bal n s = 100.0 +. float_of_int ((5 * n * (n + 1)) + (n * s))

let run_sweep_workload ~shard_faults () =
  let k = 2 in
  let schema ~shard:_ s = define_schema ~logf:ignore s in
  let fleet =
    Sharded.create ~store:`Disk ~page_size:256 ~durability:Cp.Immediate ~shards:k
      ~mode:Sharded.Deterministic ~schema ~shard_faults ()
  in
  let oids = Array.make k None in
  for s = 0 to k - 1 do
    Sharded.submit fleet ~key:s (fun ctx txn -> setup_body ctx.Sharded.session oids s txn)
  done;
  Sharded.barrier fleet;
  for r = 1 to sweep_rounds do
    for s = 0 to k - 1 do
      Sharded.submit fleet ~key:s (fun ctx txn ->
          ignore
            (Session.invoke ctx.Sharded.session txn
               (Option.get oids.(s))
               "Dep"
               [ Value.Float (float_of_int ((10 * r) + s)) ]))
    done;
    Sharded.barrier fleet
  done;
  fleet

(* Read a recovered shard back: None if its card never became durable. *)
let shard_ledger_row fleet s =
  Sharded.with_shard fleet ~key:s (fun session ->
      match Session.cluster session ~cls:"Acct" with
      | [] -> None
      | [ o ] ->
          Some
            (Session.with_txn session (fun txn ->
                 ( o,
                   Value.to_float (Session.get_field session txn o "bal"),
                   Value.to_int (Session.get_field session txn o "deps"),
                   Value.to_int (Session.get_field session txn o "marks"),
                   List.length (Session.active_triggers session txn o) )))
      | _ -> Alcotest.failf "shard %d recovered more than one card" s)

let check_row ~what ~shard row =
  match row with
  | None -> 0 (* crash before the card's setup became durable *)
  | Some (_, bal, deps, marks, acts) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: shard %d rounds in range (deps=%d)" what shard deps)
        true
        (deps >= 0 && deps <= sweep_rounds);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s: shard %d balance on ledger row %d" what shard deps)
        (ledger_bal deps shard) bal;
      Alcotest.(check int)
        (Printf.sprintf "%s: shard %d marks track deposits" what shard)
        deps marks;
      if deps >= 1 || acts > 0 then
        Alcotest.(check int)
          (Printf.sprintf "%s: shard %d activations recovered" what shard)
          3 acts;
      deps

let fleet_crash_sweep () =
  (* Baseline: learn shard 1's WAL-flush address space and pin the final
     ledger row. Flushes during the router's final sync run on the test's
     own domain, so the plans are built before it: the sweep stops at the
     last in-round flush. *)
  let planes = Array.init 2 (fun _ -> Faults.create ()) in
  let baseline = run_sweep_workload ~shard_faults:(fun i -> planes.(i)) () in
  let plans =
    Sweep.plans planes.(1) [ Site { site = Wal_flush; every = 1; acts = (fun _ -> [ Crash ]) } ]
  in
  let flushes = List.length plans in
  Sharded.sync baseline;
  (match shard_ledger_row baseline 0 with
  | Some (_, bal, deps, marks, acts) ->
      Alcotest.(check int) "baseline shard 0 complete" sweep_rounds deps;
      Alcotest.(check (float 1e-9)) "baseline shard 0 balance" (ledger_bal sweep_rounds 0) bal;
      Alcotest.(check int) "baseline shard 0 marks" sweep_rounds marks;
      Alcotest.(check int) "baseline shard 0 activations" 3 acts
  | None -> Alcotest.fail "baseline shard 0 lost its card");
  Sharded.shutdown baseline;
  Alcotest.(check bool)
    (Printf.sprintf "baseline exposes crash points (got %d flushes)" flushes)
    true (flushes >= sweep_rounds);
  let seen = Hashtbl.create 16 in
  let crash_shard_1 plan =
    let what = Faults.plan_to_string plan in
    let plane = Faults.create ~plan () in
    let shard_faults i = if i = 1 then plane else Faults.create () in
    let fleet = run_sweep_workload ~shard_faults () in
    Sharded.sync fleet;
    (match Sharded.crashed_shards fleet with
    | [ (1, _) ] -> ()
    | [] -> Alcotest.failf "%s: shard 1 never crashed" what
    | other ->
        Alcotest.failf "%s: unexpected crash set [%s]" what
          (String.concat "; " (List.map (fun (i, why) -> Printf.sprintf "%d:%s" i why) other)));
    let image = Sharded.crash fleet in
    Alcotest.(check int) (what ^ ": image covers the fleet") 2 (Sharded.image_shards image);
    let recovered =
      Sharded.recover ~mode:Sharded.Deterministic
        ~schema:(fun ~shard:_ s -> define_schema ~logf:ignore s)
        image
    in
    Sharded.sync recovered;
    let full = check_row ~what:(what ^ " recovered") ~shard:0 (shard_ledger_row recovered 0) in
    Alcotest.(check int) (what ^ ": shard 0 recovered in full") sweep_rounds full;
    let row1 = shard_ledger_row recovered 1 in
    let partial = check_row ~what:(what ^ " recovered") ~shard:1 row1 in
    (* A crash between the setup txn's two store flushes can leave the
       card durable but its activations orphaned (GC'd on recovery). *)
    let acts1 = match row1 with Some (_, _, _, _, acts) -> acts | None -> 0 in
    Hashtbl.replace seen partial ();
    (* The recovered fleet still routes and its triggers still fire: one
       more deposit on every shard that has a card must move deps and
       marks together (DepWatch survived recovery). *)
    for s = 0 to 1 do
      Sharded.submit recovered ~key:s (fun ctx txn ->
          match Session.cluster ctx.Sharded.session ~cls:"Acct" with
          | [ o ] -> ignore (Session.invoke ctx.Sharded.session txn o "Dep" [ Value.Float 1.0 ])
          | _ -> ())
    done;
    Sharded.barrier recovered;
    Sharded.sync recovered;
    (match shard_ledger_row recovered 1 with
    | None -> ()
    | Some (_, _, deps, marks, _) ->
        Alcotest.(check int) (what ^ ": recovered shard 1 took the deposit") (partial + 1) deps;
        Alcotest.(check int)
          (what ^ ": recovered shard 1 trigger fires iff activations survived")
          (if acts1 = 3 then partial + 1 else partial)
          marks);
    Sharded.shutdown recovered;
    (plane, [])
  in
  (match Sweep.run plans crash_shard_1 with
  | [] -> ()
  | (plan, v) :: _ -> Alcotest.failf "[%s] %s" plan v);
  Alcotest.(check bool)
    (Printf.sprintf "sweep reached distinct ledger rows (got %d)" (Hashtbl.length seen))
    true
    (Hashtbl.length seen >= 3)

(* With no settings labels, Sharded.recover rebuilds every shard as it
   crashed: the same settings and the same (i, K) rid striding. *)
let recover_keeps_shard_settings () =
  let k = 3 in
  let schema ~shard:_ s = define_schema ~logf:ignore s in
  let fleet =
    Sharded.create ~store:`Disk ~page_size:512 ~pool_capacity:8
      ~durability:(Cp.Group { max_batch = 4; max_delay_ticks = 16 })
      ~engine:Ode_trigger.Runtime.reference_config ~wal_segment_bytes:2048 ~ckpt_full_every:3
      ~auto_checkpoint_bytes:4096 ~shards:k ~mode:Sharded.Deterministic ~schema ()
  in
  let crashed = Array.init k (fun i -> Session.settings (Sharded.session fleet i)) in
  let fleet = Sharded.recover ~mode:Sharded.Deterministic ~schema (Sharded.crash fleet) in
  let oids = Array.make k None in
  for s = 0 to k - 1 do
    Sharded.submit fleet ~key:s (fun ctx txn -> setup_body ctx.Sharded.session oids s txn)
  done;
  Sharded.barrier fleet;
  for r = 1 to 40 do
    for s = 0 to k - 1 do
      Sharded.submit fleet ~key:s (fun ctx txn ->
          ignore
            (Session.invoke ctx.Sharded.session txn (Option.get oids.(s)) "Dep"
               [ Value.Float (float_of_int r) ]))
    done;
    Sharded.barrier fleet
  done;
  Sharded.sync fleet;
  for i = 0 to k - 1 do
    let session = Sharded.session fleet i in
    let what = Printf.sprintf "shard %d" i in
    Alcotest.(check bool) (what ^ " keeps its settings") true
      (Session.settings session = crashed.(i));
    Alcotest.(check (pair int int)) (what ^ " keeps its striding") (i, k)
      (Session.settings session).Session.shard;
    Alcotest.(check int) (what ^ " mints its own oids") i (Oid.to_int (Option.get oids.(i)) mod k);
    Alcotest.(check bool) (what ^ " seals segments") true
      (List.assoc "objects.segments_sealed" (Session.counters session) > 0)
  done;
  Sharded.shutdown fleet

(* Sharded.counters merges each key by its kind: counters are summed, a
   peak is the largest shard's value (no group:16 batch exceeds 16) and
   the mean batch size is recomputed from the merged sums. *)
let counters_merge_by_kind () =
  let k = 2 in
  let schema ~shard:_ s = define_schema ~logf:ignore s in
  let fleet =
    Sharded.create ~durability:(Cp.Group { max_batch = 16; max_delay_ticks = 64 }) ~shards:k
      ~mode:Sharded.Deterministic ~schema ()
  in
  let oids = Array.make k None in
  for s = 0 to k - 1 do
    Sharded.submit fleet ~key:s (fun ctx txn -> setup_body ctx.Sharded.session oids s txn)
  done;
  Sharded.barrier fleet;
  for r = 1 to 48 do
    for s = 0 to k - 1 do
      Sharded.submit fleet ~key:s (fun ctx txn ->
          ignore
            (Session.invoke ctx.Sharded.session txn (Option.get oids.(s)) "Dep"
               [ Value.Float (float_of_int r) ]))
    done;
    Sharded.barrier fleet
  done;
  Sharded.sync fleet;
  let counters = Sharded.counters fleet in
  let merged key = List.assoc key counters in
  let per_shard key =
    List.init k (fun i -> List.assoc key (Session.counters (Sharded.session fleet i)))
  in
  let sum key = List.fold_left ( + ) 0 (per_shard key) in
  let largest key = List.fold_left max 0 (per_shard key) in
  Alcotest.(check int) "counters are summed" (sum "objects.flushed_commits")
    (merged "objects.flushed_commits");
  Alcotest.(check (list int)) "every shard filled a batch" [ 16; 16 ]
    (per_shard "objects.max_batch_size");
  Alcotest.(check int) "max_batch_size is the largest shard's" 16 (merged "objects.max_batch_size");
  let flushed = merged "objects.flushed_commits" and flushes = merged "objects.batch_flushes" in
  Alcotest.(check int) "avg_batch_size from the merged sums"
    (Float.to_int (Float.round (float_of_int flushed /. float_of_int flushes)))
    (merged "objects.avg_batch_size");
  Alcotest.(check bool) "chains grew on every shard" true
    (List.for_all (fun n -> n > 40) (per_shard "objects.mvcc.max_chain_len"));
  Alcotest.(check int) "mvcc.max_chain_len is the largest shard's"
    (largest "objects.mvcc.max_chain_len")
    (merged "objects.mvcc.max_chain_len");
  Sharded.shutdown fleet

let suite =
  [
    Alcotest.test_case "deterministic differential vs sequential reference" `Quick differential;
    Alcotest.test_case "free mode drains and accounts" `Quick free_mode_drains;
    Alcotest.test_case "per-task latencies recorded" `Quick latencies_recorded;
    Alcotest.test_case "intern snapshot handshake" `Quick intern_handshake;
    Alcotest.test_case "reordered schema rejected" `Quick reordered_schema_rejected;
    Alcotest.test_case "builder failure re-raised after join" `Quick builder_failure_reraised;
    Alcotest.test_case "shards build on their own domains" `Quick shards_build_on_own_domains;
    Alcotest.test_case "a fleet spawns exactly K domains" `Quick fleet_spawns_k_domains;
    Alcotest.test_case "fleet crash sweep at every WAL-flush point" `Quick fleet_crash_sweep;
    Alcotest.test_case "recovery keeps every shard's settings" `Quick recover_keeps_shard_settings;
    Alcotest.test_case "counters merge by kind" `Quick counters_merge_by_kind;
  ]
