module Faults = Ode_storage.Faults
module Sweep = Ode_storage.Sweep
module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Wal = Ode_storage.Wal
module Rid = Ode_storage.Rid
module Recovery = Ode_storage.Recovery
module Disk_store = Ode_storage.Disk_store
module Mem_store = Ode_storage.Mem_store
module Lock_manager = Ode_storage.Lock_manager
module Oid = Ode_objstore.Oid
module Value = Ode_objstore.Value
module Objrec = Ode_objstore.Objrec
module Database = Ode_objstore.Database
module Trigger_state = Ode_trigger.Trigger_state
module Prng = Ode_util.Prng
module Commit_pipeline = Ode_storage.Commit_pipeline

type config = {
  seed : int;
  txns : int;
  page_size : int;
  pool_capacity : int;
  durability : Commit_pipeline.mode;
}

let default_config =
  {
    seed = 0x0DE;
    txns = 24;
    page_size = 256;
    pool_capacity = 1;
    durability = Commit_pipeline.Immediate;
  }

type snapshot = {
  obj_w : int;
  trig_w : int;
  obj_part : (string * string) list;
  trig_part : (string * string) list;
}

type outcome = Completed | Crashed of { point : int; site : Faults.site }

type run = {
  outcome : outcome;
  faults : Faults.t;
  committed : int;
  failed : int;
  image : Session.crash_image;
  snapshots : snapshot list;
  refs : (string * Oid.t option) list;
}

let workload_classes = [ "Customer"; "Merchant"; "AuditLog"; "CredCard"; "GoldCredCard" ]
let card_labels = [ "card"; "card2" ]

(* ------------------------------------------------------------------ *)
(* State probe: render everything the workload can observe, keyed by the
   two stores' durable WAL sizes at probe time. Commits flush the WAL
   synchronously, so durable size is a commit clock: a crash leaving D
   durable bytes preserves exactly the transactions of the last snapshot
   with obj_w <= D (a torn flush can only truncate the in-flight commit
   record, never complete it — it is the last record of its flush). *)

let observe env refs =
  let obj_store, trig_store = Session.stores env in
  let obj_w = Wal.durable_size obj_store.Store.wal in
  let trig_w = Wal.durable_size trig_store.Store.wal in
  Session.with_txn env (fun txn ->
      let db = Session.database env in
      let render_obj = function
        | None -> ""
        | Some oid ->
            if not (Session.exists env txn oid) then ""
            else begin
              let record = Database.get db txn oid in
              let fields =
                List.sort (fun (a, _) (b, _) -> String.compare a b) record.Objrec.fields
              in
              record.Objrec.cls ^ "{"
              ^ String.concat ";"
                  (List.map (fun (name, v) -> name ^ "=" ^ Value.to_string v) fields)
              ^ "}"
            end
      in
      let render_acts = function
        | None -> ""
        | Some oid ->
            Session.active_triggers env txn oid
            |> List.map (fun (_, st) ->
                   Printf.sprintf "%s.%d@s%d[%s]" st.Trigger_state.trigobjtype
                     st.Trigger_state.triggernum st.Trigger_state.statenum
                     (String.concat "," (List.map Value.to_string st.Trigger_state.args)))
            |> List.sort String.compare |> String.concat "|"
      in
      let obj_part =
        List.map (fun (label, oid) -> (label, render_obj oid)) refs
        @ List.map
            (fun cls ->
              ("cluster." ^ cls, string_of_int (List.length (Session.cluster env ~cls))))
            workload_classes
      in
      let trig_part =
        List.map
          (fun label -> (label ^ ".acts", render_acts (List.assoc label refs)))
          card_labels
      in
      { obj_w; trig_w; obj_part; trig_part })

(* ------------------------------------------------------------------ *)
(* The reference workload: the paper's credit-card schema driven by a
   seeded script of purchases, payments, denials, a second card that is
   later deleted (exercising the dangling-activation recovery path), and
   periodic checkpoints. *)

type refs_mut = {
  mutable customer : Oid.t option;
  mutable merchant : Oid.t option;
  mutable audit : Oid.t option;
  mutable card : Oid.t option;
  mutable card2 : Oid.t option;
}

let ref_list r =
  [
    ("customer", r.customer);
    ("merchant", r.merchant);
    ("audit", r.audit);
    ("card", r.card);
    ("card2", r.card2);
  ]

type op =
  | Setup
  | Buy of float
  | Buy2 of float
  | Pay_bill of float
  | Push_near_limit
  | Over_limit_buy of float
  | Big_buy_event
  | New_card2
  | Drop_card2

(* Scripted purchases stay within the card's remaining credit, so the one
   purchase DenyCredit aborts is the script's [Over_limit_buy]. *)
let affordable env txn card amount =
  Float.min amount (Credit_card.limit env txn card -. Credit_card.balance env txn card)

let exec env refs txn = function
  | Setup ->
      let customer = Credit_card.new_customer env txn ~name:"ada" in
      let merchant = Credit_card.new_merchant env txn ~name:"acme" in
      let audit = Credit_card.new_audit_log env txn in
      let card = Credit_card.new_card env txn ~customer ~limit:1000.0 ~audit () in
      ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
      ignore (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 500.0 ]);
      ignore (Session.activate env txn card ~trigger:"LogDenial" ~args:[]);
      refs.customer <- Some customer;
      refs.merchant <- Some merchant;
      refs.audit <- Some audit;
      refs.card <- Some card
  | Buy amount -> begin
      match (refs.card, refs.merchant) with
      | Some card, Some merchant ->
          Credit_card.buy env txn card ~merchant ~amount:(affordable env txn card amount)
      | _ -> ()
    end
  | Buy2 amount -> begin
      match (refs.card2, refs.merchant) with
      | Some card, Some merchant when Session.exists env txn card ->
          Credit_card.buy env txn card ~merchant ~amount:(affordable env txn card amount)
      | _ -> ()
    end
  | Pay_bill amount -> begin
      match refs.card with
      | Some card -> Credit_card.pay_bill env txn card ~amount
      | None -> ()
    end
  | Push_near_limit -> begin
      (* Drive the balance just past 0.8 * limit so AutoRaiseLimit's masked
         Buy matches; the following Pay_bill completes the relative event. *)
      match (refs.card, refs.merchant) with
      | Some card, Some merchant ->
          let bal = Credit_card.balance env txn card in
          let lim = Credit_card.limit env txn card in
          let target = (0.85 *. lim) -. bal in
          let amount = if target > 0.0 then target else affordable env txn card 25.0 in
          Credit_card.buy env txn card ~merchant ~amount
      | _ -> ()
    end
  | Over_limit_buy extra -> begin
      match (refs.card, refs.merchant) with
      | Some card, Some merchant ->
          let bal = Credit_card.balance env txn card in
          let lim = Credit_card.limit env txn card in
          Credit_card.buy env txn card ~merchant ~amount:(lim -. bal +. extra)
      | _ -> ()
    end
  | Big_buy_event -> begin
      match refs.card with
      | Some card -> Session.post_event env txn card "BigBuy"
      | None -> ()
    end
  | New_card2 -> begin
      match refs.customer with
      | Some customer ->
          let card2 = Credit_card.new_card env txn ~customer ~limit:300.0 () in
          ignore (Session.activate env txn card2 ~trigger:"DenyCredit" ~args:[]);
          refs.card2 <- Some card2
      | None -> ()
    end
  | Drop_card2 -> begin
      match refs.card2 with
      | Some card2 when Session.exists env txn card2 -> Session.pdelete env txn card2
      | _ -> ()
    end

(* The fixed steps pin what every seed must exercise: setup, the second
   card's life, and (from txns = 3 on) exactly one purchase that DenyCredit
   aborts. The over-limit purchase skips checkpoint slots so it never
   displaces a checkpoint. *)
let script config rng =
  let third = max 1 (config.txns / 3) in
  let two_thirds = max (third + 1) (2 * config.txns / 3) in
  let over = if (two_thirds + 1) mod 7 = 5 then two_thirds + 2 else two_thirds + 1 in
  let step i =
    if i = 0 then `Op Setup
    else if i = third then `Op New_card2
    else if i = two_thirds then `Op Drop_card2
    else if i = over then `Op (Over_limit_buy 50.0)
    else if i mod 7 = 5 then `Checkpoint
    else begin
      let roll = Prng.int rng 10 in
      let amount = 20.0 +. float_of_int (Prng.int rng 150) in
      match roll with
      | 0 | 1 | 2 | 3 -> `Op (Buy amount)
      | 4 -> `Op (Buy2 amount)
      | 5 | 6 | 8 -> `Op (Pay_bill amount)
      | 7 -> `Op Push_near_limit
      | _ -> `Op Big_buy_event
    end
  in
  List.init (config.txns + 1) step

let run ?(config = default_config) ~plan () =
  let faults = Faults.create ~plan () in
  let env =
    Session.create ~store:`Disk ~page_size:config.page_size
      ~pool_capacity:config.pool_capacity ~durability:config.durability ~faults ()
  in
  Credit_card.define_all env;
  let rng = Prng.create ~seed:(Int64.of_int config.seed) in
  let refs = { customer = None; merchant = None; audit = None; card = None; card2 = None } in
  let snapshots = ref [] in
  let committed = ref 0 in
  let failed = ref 0 in
  let snap () =
    match observe env (ref_list refs) with
    | snapshot -> snapshots := snapshot :: !snapshots
    | exception (Session.Aborted | Faults.Injected_fault _ | Store.Store_error _) -> ()
  in
  let attempt op =
    (match Session.with_txn env (fun txn -> exec env refs txn op) with
    | () -> incr committed
    | exception
        ( Session.Aborted | Faults.Injected_fault _ | Store.Store_error _
        | Session.Ode_error _ | Store.Would_block _ | Lock_manager.Deadlock _ ) ->
        incr failed);
    snap ()
  in
  let checkpoint () =
    (match Session.checkpoint env with
    | () -> ()
    | exception (Faults.Injected_fault _ | Store.Store_error _) -> incr failed);
    snap ()
  in
  let steps = script config rng in
  let outcome =
    match
      snap ();
      List.iter (function `Op op -> attempt op | `Checkpoint -> checkpoint ()) steps
    with
    | () -> Completed
    | exception Faults.Injected_crash { point; site } -> Crashed { point; site }
  in
  let image = Session.crash env in
  {
    outcome;
    faults;
    committed = !committed;
    failed = !failed;
    image;
    snapshots = List.rev !snapshots;
    refs = ref_list refs;
  }

(* ------------------------------------------------------------------ *)
(* Invariant checking. *)

(* Raw (rid, payload) contents of a recovered store, sorted. *)
let store_records ops mgr =
  let txn = Txn.begin_txn ~system:true mgr in
  let acc = ref [] in
  ops.Store.iter txn (fun rid payload -> acc := (Rid.to_int rid, Bytes.to_string payload) :: !acc);
  Txn.commit txn;
  List.sort compare !acc

(* Oracle agreement: recover_disk and recover_mem over the same durable
   bytes must both equal the committed_state record map. *)
let check_differential name wal_bytes err =
  let oracle =
    Recovery.committed_state (Wal.decode_records wal_bytes)
    |> List.map (fun (rid, payload) -> (Rid.to_int rid, Bytes.to_string payload))
    |> List.sort compare
  in
  match
    let mgr = Txn.create_mgr () in
    let disk = Recovery.recover_disk ~mgr ~name:(name ^ "-disk") ~wal_bytes () in
    let mem = Recovery.recover_mem ~mgr ~name:(name ^ "-mem") ~wal_bytes () in
    (store_records (Disk_store.ops disk) mgr, store_records (Mem_store.ops mem) mgr)
  with
  | exception e ->
      err (Printf.sprintf "%s: record-level recovery raised %s" name (Printexc.to_string e))
  | disk, mem ->
      if disk <> oracle then
        err
          (Printf.sprintf "%s: recover_disk diverges from committed_state (%d vs %d records)"
             name (List.length disk) (List.length oracle));
      if mem <> oracle then
        err
          (Printf.sprintf "%s: recover_mem diverges from committed_state (%d vs %d records)"
             name (List.length mem) (List.length oracle))

let last_snapshot_with proj limit snapshots =
  List.fold_left (fun best s -> if proj s <= limit then Some s else best) None snapshots

let compare_parts what expected observed err =
  List.iter
    (fun (key, want) ->
      match List.assoc_opt key observed with
      | Some got when String.equal got want -> ()
      | Some got ->
          err
            (Printf.sprintf "%s state mismatch at %s: expected %S, recovered %S" what key want
               got)
      | None -> err (Printf.sprintf "%s state missing key %s after recovery" what key))
    expected

(* Why a sweep passes the baseline's [ledger]: see crashlab.mli. *)
let verify ?ledger run =
  let ledger = match ledger with Some l -> l | None -> run.snapshots in
  let violations = ref [] in
  let add msg = violations := msg :: !violations in
  let err fmt = Format.kasprintf add fmt in
  let obj_wal, trig_wal = Session.image_wals run.image in
  check_differential "objects" obj_wal add;
  check_differential "triggers" trig_wal add;
  (* Transient injected faults can abort a probe transaction mid-run,
     leaving a gap in the snapshot ledger; exact-state matching is only
     sound when no Fail fired. The WAL-level and behavioural invariants
     above/below hold regardless. *)
  let strict = not (List.exists (fun (_, _, act) -> act = Faults.Fail) (Faults.fired run.faults)) in
  (match Session.recover run.image with
  | exception e -> err "Session.recover raised %s" (Printexc.to_string e)
  | env -> (
      if Session.settings env <> Session.image_settings run.image then
        err "recovered session's settings differ from the crashed run's";
      Credit_card.define_all env;
      (match observe env run.refs with
      | exception e -> err "post-recovery probe raised %s" (Printexc.to_string e)
      | observed ->
          if strict then begin
            let obj_len = Bytes.length obj_wal in
            let trig_len = Bytes.length trig_wal in
            match
              ( last_snapshot_with (fun s -> s.obj_w) obj_len ledger,
                last_snapshot_with (fun s -> s.trig_w) trig_len ledger )
            with
            | Some obj_snap, Some trig_snap ->
                let expected_obj = obj_snap.obj_part in
                (* Per-store durable prefixes, then cross-store pruning:
                   activations whose object did not survive are GCed by
                   recovery, so they are removed from the expectation too. *)
                let object_gone label =
                  match List.assoc_opt label expected_obj with
                  | Some "" | None -> true
                  | Some _ -> false
                in
                let expected_trig =
                  List.map
                    (fun (key, want) ->
                      let label = Filename.remove_extension key in
                      if object_gone label then (key, "") else (key, want))
                    trig_snap.trig_part
                in
                compare_parts "object" expected_obj observed.obj_part add;
                compare_parts "trigger" expected_trig observed.trig_part add
            | _ -> err "no snapshot applies (obj=%dB trig=%dB durable)" obj_len trig_len
          end;
          (* No dangling activations, strict or not. *)
          Session.with_txn env (fun txn ->
              List.iter
                (fun (label, oid) ->
                  match oid with
                  | Some oid
                    when (not (Session.exists env txn oid))
                         && Session.active_triggers env txn oid <> [] ->
                      err "dangling TriggerState rows on deleted %s survived recovery" label
                  | _ -> ())
                run.refs);
          (* Behavioural probe: the recovered database must enforce exactly
             the trigger state it recovered — an over-limit purchase is
             denied iff a live DenyCredit activation survived. *)
          (match List.assoc_opt "card" run.refs with
          | Some (Some card) -> (
              let state =
                Session.with_txn env (fun txn ->
                    if not (Session.exists env txn card) then None
                    else
                      let has_deny =
                        List.exists
                          (fun (_, st) ->
                            st.Trigger_state.triggernum = 0
                            && String.equal st.Trigger_state.trigobjtype "CredCard"
                            && st.Trigger_state.statenum <> Trigger_state.dead_state)
                          (Session.active_triggers env txn card)
                      in
                      let bal = Credit_card.balance env txn card in
                      let lim = Credit_card.limit env txn card in
                      Some (has_deny, bal, lim))
              in
              match state with
              | None -> ()
              | Some (has_deny, bal, lim) -> (
                  let amount = lim -. bal +. 100.0 in
                  let allowed =
                    Session.attempt env (fun txn ->
                        ignore (Session.invoke env txn card "Buy" [ Value.Null; Value.Float amount ]))
                  in
                  match (allowed, has_deny) with
                  | None, true | Some _, false -> ()
                  | Some _, true -> err "over-limit purchase allowed despite recovered DenyCredit"
                  | None, false -> err "over-limit purchase denied without a DenyCredit activation"))
          | _ -> ()))));
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration. *)

let torn_fractions = [| 0.0; 0.25; 0.5; 0.9 |]

let sweep ?(config = default_config) ?(stride = 1) ?(torn = true) ?on_progress () =
  let base = run ~config ~plan:[] () in
  let torn_at k = [ Faults.Torn torn_fractions.(k mod Array.length torn_fractions) ] in
  let families =
    Sweep.Points { stride }
    ::
    (if torn then
       [
         Sweep.Site { site = Wal_flush; every = 1; acts = torn_at };
         Sweep.Site { site = Page_write; every = 3; acts = torn_at };
       ]
     else [])
  in
  Sweep.sweep ?on_progress ~baseline:base.faults families (fun plan ->
      let result = run ~config ~plan () in
      let completed = if result.outcome = Completed then [ "run completed" ] else [] in
      (result.faults, completed @ verify ~ledger:base.snapshots result))
