(* Posting-engine differential and durability tests.

   The optimised engine (event-relevance filtering and the write-back
   trigger-state cache) must be observationally identical to the
   unoptimised reference configuration. Both step every machine through
   the same sparse transition array. One seeded random workload — well
   over 500 posts mixed with activations, deactivations, local rules,
   mask flips and aborted transactions — is applied to two environments
   that differ only in engine configuration; fired-action logs and every
   activation's (trigger, statenum) are compared at every transaction
   boundary. A history-rescan Naive_detector independently predicts the
   once-only trigger's fire on the dedicated oracle object.

   The write-back cache defers trigger-state writes to commit-prepare, so
   a separate test crashes the environment after a committed FSM move and
   checks the move survived recovery (and an aborted move did not); a
   short Crashlab sweep re-checks all recovery invariants with the cache
   in the write path. *)

module Session = Ode.Session
module Crashlab = Ode.Crashlab
module Runtime = Ode_trigger.Runtime
module Trigger_state = Ode_trigger.Trigger_state
module Ctx = Ode_trigger.Trigger_def
module Intern = Ode_event.Intern
module Ast = Ode_event.Ast
module Naive = Ode_baselines.Naive_detector
module Oid = Ode_objstore.Oid
module Value = Ode_objstore.Value
module Prng = Ode_util.Prng

(* ------------------------------------------------------------------ *)
(* Random workload scripts: generated up front as pure data so the same
   script can be applied to each engine configuration. Object indices
   only ever reference objects that exist when the op runs (objects
   created in aborted transactions are never referenced again), and the
   oracle object 0 keeps exactly its one setup-time activation. *)

type op =
  | New_obj
  | Activate of int * string
  | Activate_local of int * string
  | Deactivate_first of int
  | Post of int * string
  | Set_temp of int * int

type txn_script = { ops : op list; commit : bool }

let events = [ "a"; "b"; "c"; "d" ]
let triggers = [ "seq"; "masked"; "union" ]
let pick prng l = List.nth l (Prng.int prng (List.length l))

let gen_scripts prng ~min_posts =
  let posts = ref 0 in
  let committed_objs = ref 1 (* the setup transaction creates object 0 *) in
  let scripts = ref [] in
  while !posts < min_posts do
    let commit = not (Prng.chance prng 0.25) in
    let nobjs = ref !committed_objs in
    let nops = 3 + Prng.int prng 6 in
    let ops = ref [] in
    for _ = 1 to nops do
      let obj = Prng.int prng !nobjs in
      let post () =
        incr posts;
        Post (obj, pick prng events)
      in
      let op =
        match Prng.int prng 20 with
        | 0 | 1 ->
            incr nobjs;
            New_obj
        | 2 | 3 -> if obj = 0 then post () else Activate (obj, pick prng triggers)
        | 4 -> if obj = 0 then post () else Activate_local (obj, pick prng triggers)
        | 5 -> if obj = 0 then post () else Deactivate_first obj
        | 6 | 7 -> Set_temp (obj, Prng.int prng 100)
        | _ -> post ()
      in
      ops := op :: !ops
    done;
    if commit then committed_objs := !nobjs;
    scripts := { ops = List.rev !ops; commit } :: !scripts
  done;
  (List.rev !scripts, !posts)

(* ------------------------------------------------------------------ *)
(* One world: an environment under a given engine configuration, a fire
   log (buffered per transaction, kept only on commit — immediate
   actions executed in an aborted transaction roll back with it), and
   the script-index → oid mapping. *)

type world = {
  w_env : Session.t;
  w_fires : (string * int) list ref;  (* this txn, newest first *)
  mutable w_committed : (int * string * int) list;  (* (txn, trigger, oid) *)
  w_objs : (int, Oid.t) Hashtbl.t;
}

let define_w env fires =
  let log name _env ctx = fires := (name, Oid.to_int ctx.Ctx.obj) :: !fires in
  let trigger name expr perpetual =
    {
      Session.tr_name = name;
      tr_params = [];
      tr_event = expr;
      tr_perpetual = perpetual;
      tr_coupling = Ode_trigger.Coupling.Immediate;
      tr_action = log name;
      tr_posts = [];
      tr_reads = [];
      tr_writes = [];
      tr_pure = true;
    }
  in
  Session.define_class env ~name:"W"
    ~fields:[ ("temp", Value.Int 0) ]
    ~events:(List.map (fun e -> Intern.User e) events)
    ~masks:
      [
        ( "hot",
          fun env ctx ->
            Value.to_int (Session.get_field env ctx.Ctx.txn ctx.Ctx.obj "temp") > 50 );
      ]
    ~triggers:
      [ trigger "seq" "a , b" false; trigger "masked" "c & hot" true; trigger "union" "b || d" true ]
    ()

let make_world ~engine =
  let fires = ref [] in
  let env = Session.create ~store:`Mem ~engine () in
  define_w env fires;
  let objs = Hashtbl.create 64 in
  Session.with_txn env (fun txn ->
      let obj0 = Session.pnew env txn ~cls:"W" () in
      ignore (Session.activate env txn obj0 ~trigger:"seq" ~args:[]);
      Hashtbl.replace objs 0 obj0);
  { w_env = env; w_fires = fires; w_committed = []; w_objs = objs }

let obj w i =
  match Hashtbl.find_opt w.w_objs i with
  | Some oid -> oid
  | None -> Alcotest.failf "script references unknown object %d" i

let apply_txn w ord script =
  let txn = Session.begin_txn w.w_env in
  let created = ref [] in
  let next = ref (Hashtbl.length w.w_objs) in
  List.iter
    (fun op ->
      match op with
      | New_obj ->
          let oid = Session.pnew w.w_env txn ~cls:"W" () in
          Hashtbl.replace w.w_objs !next oid;
          created := !next :: !created;
          incr next
      | Activate (i, tr) -> ignore (Session.activate w.w_env txn (obj w i) ~trigger:tr ~args:[])
      | Activate_local (i, tr) -> Session.activate_local w.w_env txn (obj w i) ~trigger:tr ~args:[]
      | Deactivate_first i -> (
          match Runtime.active_on (Session.runtime w.w_env) txn (obj w i) with
          | [] -> ()
          | (id, _) :: _ -> Session.deactivate w.w_env txn id)
      | Post (i, e) -> Session.post_event w.w_env txn (obj w i) e
      | Set_temp (i, v) -> Session.set_field w.w_env txn (obj w i) "temp" (Value.Int v))
    script.ops;
  if script.commit then begin
    Session.commit w.w_env txn;
    w.w_committed <-
      List.fold_left (fun acc (name, o) -> (ord, name, o) :: acc) w.w_committed
        (List.rev !(w.w_fires))
  end
  else begin
    Session.abort w.w_env txn;
    List.iter (Hashtbl.remove w.w_objs) !created
  end;
  w.w_fires := []

(* (trigger, statenum) signature of every activation on every live
   object, read in a probe transaction. *)
let activation_signature w =
  let txn = Session.begin_txn w.w_env in
  let sig_ =
    Hashtbl.fold
      (fun idx oid acc ->
        let states =
          Runtime.active_on (Session.runtime w.w_env) txn oid
          |> List.map (fun (_, st) ->
                 (st.Trigger_state.triggernum, st.Trigger_state.statenum))
        in
        (idx, states) :: acc)
      w.w_objs []
    |> List.sort compare
  in
  Session.abort w.w_env txn;
  sig_

let compare_worlds ord a b =
  if a.w_committed <> b.w_committed then
    Alcotest.failf "txn %d: committed fire logs diverged (%d vs %d entries)" ord
      (List.length a.w_committed) (List.length b.w_committed);
  let sa = activation_signature a and sb = activation_signature b in
  if sa <> sb then Alcotest.failf "txn %d: activation states diverged" ord

(* ------------------------------------------------------------------ *)

let differential () =
  Seeds.with_seed "posting_engine.differential" (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      let scripts, posts = gen_scripts prng ~min_posts:550 in
      Alcotest.(check bool) "workload posts >= 500 events" true (posts >= 500);
      let full = make_world ~engine:Runtime.default_config in
      let reference = make_world ~engine:Runtime.reference_config in
      List.iteri
        (fun ord script ->
          apply_txn full ord script;
          apply_txn reference ord script;
          (* Object allocation must stay in lockstep for oids to be
             comparable across worlds. *)
          Hashtbl.iter
            (fun idx oid ->
              if not (Oid.equal oid (obj reference idx)) then
                Alcotest.failf "txn %d: oid allocation diverged on object %d" ord idx)
            full.w_objs;
          compare_worlds ord full reference)
        scripts;
      (* The optimised layers must actually have been on the path. *)
      let sf = Ode_util.Metrics.get (Runtime.metrics (Session.runtime full.w_env)) in
      Alcotest.(check bool) "filter exercised" true (sf "index_skips" > 0);
      Alcotest.(check bool) "cache exercised" true (sf "cache_hits" > 0);
      let sr = Ode_util.Metrics.get (Runtime.metrics (Session.runtime reference.w_env)) in
      Alcotest.(check int) "reference never filters" 0 (sr "index_skips");
      Alcotest.(check int) "reference never caches" 0 (sr "cache_hits");
      (* Naive_detector oracle for object 0's once-only "seq": replay the
         committed posts to object 0 through a history rescan of the same
         (unanchored) expression. *)
      let intern = Session.intern full.w_env in
      let id e =
        match Intern.find intern ~cls:"W" (Intern.User e) with
        | Some id -> id
        | None -> Alcotest.failf "event %s not interned" e
      in
      let naive =
        Naive.create
          ~alphabet:(List.map id events)
          (Ast.Seq (Ast.Basic (id "a"), Ast.Basic (id "b")))
      in
      let predicted = ref None in
      List.iteri
        (fun ord script ->
          if script.commit then
            List.iter
              (function
                | Post (0, e) when !predicted = None ->
                    if Naive.post naive (id e) then predicted := Some ord
                | _ -> ())
              script.ops)
        scripts;
      let oid0 = Oid.to_int (obj full 0) in
      let actual =
        List.rev full.w_committed
        |> List.filter (fun (_, name, o) -> name = "seq" && o = oid0)
      in
      match (!predicted, actual) with
      | None, [] -> ()
      | Some ord, [ (ord', _, _) ] when ord = ord' -> ()
      | Some ord, [] ->
          Alcotest.failf "oracle predicted a seq fire in txn %d; engine never fired" ord
      | None, (ord, _, _) :: _ ->
          Alcotest.failf "engine fired seq in txn %d; oracle predicted none" ord
      | Some ord, fires ->
          Alcotest.failf "oracle predicted one seq fire in txn %d; engine fired %d times" ord
            (List.length fires))

(* ------------------------------------------------------------------ *)
(* The cache defers trigger-state writes to commit-prepare: a committed
   FSM move must be durable across a crash, an aborted one must not be. *)

let cache_durability () =
  let env = Session.create ~store:`Disk () in
  let fires = ref [] in
  define_w env fires;
  let obj0 =
    Session.with_txn env (fun txn ->
        let obj0 = Session.pnew env txn ~cls:"W" () in
        ignore (Session.activate env txn obj0 ~trigger:"seq" ~args:[]);
        obj0)
  in
  (* Committed move: "a" advances the once-only a,b machine off start. *)
  Session.with_txn env (fun txn -> Session.post_event env txn obj0 "a");
  Alcotest.(check bool) "the move went through the write-back cache" true
    (Ode_util.Metrics.get (Runtime.metrics (Session.runtime env)) "cache_flushes" > 0);
  (* Aborted move: "b" would complete the match and fire; roll it back. *)
  let txn = Session.begin_txn env in
  Session.post_event env txn obj0 "b";
  Alcotest.(check int) "rolled-back fire happened in-transaction" 1 (List.length !fires);
  Session.abort env txn;
  fires := [];
  let env2 = Session.recover (Session.crash env) in
  define_w env2 fires;
  let txn = Session.begin_txn env2 in
  (match Runtime.active_on (Session.runtime env2) txn obj0 with
  | [ (_, st) ] ->
      (* Still active: the aborted completion was not made durable. *)
      Alcotest.(check bool) "committed move survived recovery" true
        (st.Trigger_state.statenum
        <> (Ode_trigger.Trigger_def.Registry.trigger_info
              (Runtime.registry (Session.runtime env2))
              ~cls:"W" ~index:st.Trigger_state.triggernum)
             .Ode_trigger.Trigger_def.t_fsm.Ode_event.Fsm.start)
  | l -> Alcotest.failf "expected 1 recovered activation, found %d" (List.length l));
  Session.abort env2 txn;
  (* Behavioural proof of the same: "b" alone completes a,b only if the
     committed "a" survived. Once-only, so it also deactivates. *)
  Session.with_txn env2 (fun txn -> Session.post_event env2 txn obj0 "b");
  Alcotest.(check (list (pair string int))) "recovered machine fired on b"
    [ ("seq", Oid.to_int obj0) ]
    !fires;
  let txn = Session.begin_txn env2 in
  Alcotest.(check int) "once-only deactivated after firing" 0
    (List.length (Runtime.active_on (Session.runtime env2) txn obj0));
  Session.abort env2 txn

(* Short crash-point sweep (PR 1's plane) with the write-back cache in
   the write path: every recovery invariant must hold at every sampled
   crash point. *)
let cache_crash_sweep () =
  Seeds.with_seed "posting_engine.sweep" (fun seed ->
      let config = { Crashlab.default_config with Crashlab.txns = 6; seed } in
      let sweep = Crashlab.sweep ~config ~stride:11 ~torn:false () in
      Alcotest.(check bool) "sweep has crash points" true
        (Ode_storage.Faults.point sweep.Ode_storage.Sweep.baseline > 0);
      match sweep.Ode_storage.Sweep.violations with
      | [] -> ()
      | (plan, violation) :: _ ->
          Alcotest.failf "cache broke recovery: %s (replay: --fault-plan '%s')" violation plan)

let suite =
  [
    Alcotest.test_case "seeded differential: full vs reference vs naive" `Quick differential;
    Alcotest.test_case "write-back cache durability across crash" `Quick cache_durability;
    Alcotest.test_case "crash sweep with cache in write path" `Slow cache_crash_sweep;
  ]
