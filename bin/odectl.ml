(* odectl — command-line companion for the Ode reproduction.

   odectl fsm -E a,b,c -M Low,High -e "a, b & Low"   compile an event
       expression over an ad-hoc alphabet and print the machine (or dot)
   odectl figure1                                    print the paper's
       Figure 1 machine from the credit-card schema
   odectl lint schema.opp                            static trigger/rule
       analysis with severity-gated exit status
   odectl demo                                       a compact run of the
       credit-card example

   Exit codes: 0 success, 1 command failure (including lint gating),
   2 command-line usage errors (unknown flags or subcommands), 125
   uncaught exceptions. *)

open Cmdliner
module Ast = Ode_event.Ast
module Parser = Ode_event.Parser
module Compile = Ode_event.Compile
module Fsm = Ode_event.Fsm
module Intern = Ode_event.Intern
module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Value = Ode_objstore.Value
module Sharded = Ode_parallel.Sharded
module Replication = Ode_replication.Replication

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun s -> s <> "")

(* Command failure (exit 1) and usage error (exit 2). Run functions return
   their exit code instead of going through [Term.ret]: cmdliner 1.3
   classifies [ret `Error] and unknown options identically, so routing our
   own failures around it is what keeps the two exit codes distinct. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("odectl: " ^ msg); 1) fmt
let usage_die fmt = Printf.ksprintf (fun msg -> prerr_endline ("odectl: " ^ msg); 2) fmt

(* ------------------------------------------------------------------ *)
(* odectl fsm *)

let fsm_cmd =
  let run events masks expr_text dot raw =
    let reg = Intern.create () in
    let event_names = split_commas events in
    if event_names = [] then usage_die "at least one event is required (-E)"
    else begin
      let table =
        List.map (fun name -> (name, Intern.id reg ~cls:"cli" (Intern.User name))) event_names
      in
      let mask_names = split_commas masks in
      let mask_table =
        List.mapi (fun i name -> (name, { Ast.mask_id = i; mask_name = name })) mask_names
      in
      let env =
        {
          Parser.resolve_event =
            (fun ?cls basic ->
              ignore cls;
              match basic with
              | Intern.User name -> List.assoc_opt name table
              | _ -> None);
          resolve_mask = (fun name -> List.assoc_opt name mask_table);
        }
      in
      match Compile.of_source ~raw env ~alphabet:(List.map snd table) expr_text with
      | Error msg -> die "%s" msg
      | Ok (anchored, ast, fsm) ->
          let event_name id = Intern.name_of_id reg id in
          if dot then print_string (Fsm.to_dot ~event_name fsm)
          else begin
            Format.printf "expression: %s%s@."
              (if anchored then "^ " else "")
              (Ast.to_string ~event_name ast);
            Format.printf "%a@." (Fsm.pp ~event_name ()) fsm
          end;
          0
    end
  in
  let events =
    Arg.(value & opt string "" & info [ "E"; "events" ] ~docv:"NAMES"
           ~doc:"Comma-separated declared (user) events forming the class alphabet.")
  in
  let masks =
    Arg.(value & opt string "" & info [ "M"; "masks" ] ~docv:"NAMES"
           ~doc:"Comma-separated mask names usable with &.")
  in
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR"
           ~doc:"Event expression, e.g. 'relative((a & Low), b)'.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a table.") in
  let raw =
    Arg.(value & flag & info [ "raw" ] ~doc:"Skip minimisation and mask-state pruning.")
  in
  Cmd.v
    (Cmd.info "fsm" ~doc:"Compile an event expression to its trigger FSM")
    Term.(const run $ events $ masks $ expr $ dot $ raw)

(* ------------------------------------------------------------------ *)
(* odectl figure1 *)

let figure1_cmd =
  let run dot =
    let env = Session.create () in
    Credit_card.define_all env;
    let fsm = Session.trigger_fsm env ~cls:"CredCard" ~trigger:"AutoRaiseLimit" in
    let event_name id = Intern.name_of_id (Session.intern env) id in
    if dot then print_string (Fsm.to_dot ~event_name fsm)
    else Format.printf "%a@." (Fsm.pp ~event_name ()) fsm
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.") in
  Cmd.v
    (Cmd.info "figure1" ~doc:"Print the paper's Figure 1 (AutoRaiseLimit FSM)")
    Term.(const (fun dot -> run dot; 0) $ dot)

(* ------------------------------------------------------------------ *)
(* odectl opp *)

let opp_cmd =
  let run path show_fsms =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> die "%s" msg
    | source -> begin
        let env = Session.create () in
        match Ode.Opp.load ~on_missing:`Stub env ~bindings:Ode.Opp.no_bindings source with
        | exception Ode.Opp.Syntax_error { line; message } ->
            die "%s:%d: %s" path line message
        | exception Session.Ode_error msg -> die "%s" msg
        | classes ->
            let event_name id = Intern.name_of_id (Session.intern env) id in
            List.iter
              (fun cls ->
                Printf.printf "class %s\n" cls;
                let registry = Ode_trigger.Runtime.registry (Session.runtime env) in
                let descriptor = Ode_trigger.Trigger_def.Registry.find_exn registry cls in
                Array.iter
                  (fun info ->
                    Printf.printf "  trigger %s%s (%s): %d states\n"
                      info.Ode_trigger.Trigger_def.t_name
                      (if info.Ode_trigger.Trigger_def.t_perpetual then " [perpetual]" else "")
                      (Ode_trigger.Coupling.to_string info.Ode_trigger.Trigger_def.t_coupling)
                      (Fsm.num_states info.Ode_trigger.Trigger_def.t_fsm);
                    if show_fsms then
                      Format.printf "%a@."
                        (Fsm.pp ~event_name ())
                        info.Ode_trigger.Trigger_def.t_fsm)
                  descriptor.Ode_trigger.Trigger_def.d_triggers)
              classes;
            0
      end
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"O++-style schema file (see examples/schemas/).")
  in
  let show = Arg.(value & flag & info [ "fsms" ] ~doc:"Print each trigger's compiled machine.") in
  Cmd.v
    (Cmd.info "opp" ~doc:"Check an O++-style schema and compile its trigger FSMs")
    Term.(const run $ path $ show)

(* ------------------------------------------------------------------ *)
(* odectl lint *)

let lint_cmd =
  let module Diagnostic = Ode_analysis.Diagnostic in
  let module Analyze = Ode_analysis.Analyze in
  let run json max_sev_text budget concur paths =
    match Diagnostic.severity_of_string max_sev_text with
    | None -> usage_die "bad --max-severity %S (expected info, warning or error)" max_sev_text
    | Some max_sev -> begin
        let config =
          if concur then Analyze.concur_only_config
          else { Analyze.default_config with Analyze.state_budget = budget }
        in
        let lint_one path =
          match In_channel.with_open_text path In_channel.input_all with
          | exception Sys_error msg -> Error msg
          | source -> begin
              let env = Session.create () in
              match
                Ode.Opp.load ~on_missing:`Stub ~allow_lint_errors:true env
                  ~bindings:Ode.Opp.no_bindings source
              with
              | exception Ode.Opp.Syntax_error { line; message } ->
                  Error (Printf.sprintf "%s:%d: %s" path line message)
              | exception Session.Ode_error msg -> Error (Printf.sprintf "%s: %s" path msg)
              | _classes -> Ok (path, Diagnostic.sort (Session.lint ~config env))
            end
        in
        let rec collect acc = function
          | [] -> Ok (List.rev acc)
          | path :: rest -> begin
              match lint_one path with
              | Ok result -> collect (result :: acc) rest
              | Error msg -> Error msg
            end
        in
        match collect [] paths with
        | Error msg -> die "%s" msg
        | Ok results ->
            let all = List.concat_map snd results in
            (if json then begin
               match results with
               | [ (file, diags) ] -> print_string (Diagnostic.report_json ~file diags)
               | _ ->
                   (* Same report shape as {!Diagnostic.report_json}, with a
                      per-diagnostic file field. *)
                   let buf = Buffer.create 1024 in
                   Buffer.add_string buf "{\"version\":1,\"diagnostics\":[";
                   let first = ref true in
                   List.iter
                     (fun (file, diags) ->
                       List.iter
                         (fun d ->
                           if not !first then Buffer.add_string buf ",";
                           first := false;
                           Buffer.add_string buf "\n  ";
                           Buffer.add_string buf (Diagnostic.to_json ~file d))
                         diags)
                     results;
                   if not !first then Buffer.add_string buf "\n";
                   let errors, warnings, infos = Diagnostic.counts all in
                   Buffer.add_string buf
                     (Printf.sprintf "],\"counts\":{\"error\":%d,\"warning\":%d,\"info\":%d}}\n"
                        errors warnings infos);
                   print_string (Buffer.contents buf)
             end
             else
               List.iter
                 (fun (file, diags) -> Format.printf "%a" (Diagnostic.pp_report ~file) diags)
                 results);
            let gated =
              List.exists
                (fun d ->
                  Diagnostic.severity_rank d.Diagnostic.d_severity
                  > Diagnostic.severity_rank max_sev)
                all
            in
            if gated then 1 else 0
      end
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")
  in
  let max_sev =
    Arg.(value & opt string "warning"
         & info [ "max-severity" ] ~docv:"SEV"
             ~doc:"Highest severity allowed to pass (info, warning or error): exit 1 when any \
                   diagnostic is strictly more severe. Default warning (errors fail the lint).")
  in
  let budget =
    Arg.(value & opt int Ode_analysis.Analyze.default_config.Ode_analysis.Analyze.state_budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"State budget for the determinization blow-up pass.")
  in
  let concur =
    Arg.(value & flag
         & info [ "concur" ]
             ~doc:"Run only the whole-schema concurrency pass (lock-order deadlock, \
                   snapshot-safety, cross-shard affinity).")
  in
  let paths =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
           ~doc:"O++-style schema files (see examples/schemas/).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze the triggers of O++-style schemas (emptiness, vacuity, \
             subsumption, termination, state blow-up, concurrency)")
    Term.(const run $ json $ max_sev $ budget $ concur $ paths)

(* ------------------------------------------------------------------ *)
(* odectl footprint *)

let footprint_cmd =
  let module Concur = Ode_analysis.Concur in
  let run json shards path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> die "%s" msg
    | source -> begin
        let env = Session.create () in
        match
          Ode.Opp.load ~on_missing:`Stub ~allow_lint_errors:true env
            ~bindings:Ode.Opp.no_bindings source
        with
        | exception Ode.Opp.Syntax_error { line; message } ->
            die "%s:%d: %s" path line message
        | exception Session.Ode_error msg -> die "%s: %s" path msg
        | _classes ->
            let report = Session.concur_report env in
            let shards = if shards > 1 then Some shards else None in
            if json then print_string (Concur.report_json ?shards report)
            else Format.printf "%a" (Concur.pp_report ?shards) report;
            0
      end
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:"Annotate cross-shard affinity with the expected forward fraction at K \
                   shards (the oid mod K partition of the parallel fleet).")
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"O++-style schema file (see examples/schemas/).")
  in
  Cmd.v
    (Cmd.info "footprint"
       ~doc:"Infer per-trigger lock footprints (direct and cascade-transitive) for an \
             O++-style schema, with deadlock cycles, commutativity classes, \
             snapshot-safety and shard affinity")
    Term.(const run $ json $ shards $ path)

(* ------------------------------------------------------------------ *)
(* odectl faults *)

let faults_cmd =
  let run plan_text sweep stride seed txns =
    let config = { Ode.Crashlab.default_config with seed; txns } in
    let module Crashlab = Ode.Crashlab in
    let module Faults = Ode_storage.Faults in
    if sweep then begin
      let result =
        Crashlab.sweep ~config ~stride
          ~on_progress:(fun ~done_ ~total ->
            if done_ mod 50 = 0 || done_ = total then
              Printf.eprintf "\r%d/%d plans checked%!" done_ total)
          ()
      in
      Printf.eprintf "\n%!";
      let { Ode_storage.Sweep.baseline; plans; violations } = result in
      Printf.printf "addressable I/O points : %d\n" (Faults.point baseline);
      Printf.printf "plans checked          : %d\n" plans;
      Printf.printf "invariant violations   : %d\n" (List.length violations);
      List.iter
        (fun (plan, violation) ->
          Printf.printf "  [--fault-plan %S] %s\n" plan violation)
        violations;
      if violations = [] then 0 else die "violations found"
    end
    else begin
      match plan_text with
      | "" -> usage_die "either --fault-plan PLAN or --sweep is required"
      | text -> begin
          match Faults.plan_of_string text with
          | Error msg -> usage_die "bad fault plan: %s" msg
          | Ok plan ->
              let base = Crashlab.run ~config ~plan:[] () in
              let result = Crashlab.run ~config ~plan () in
              (match result.Crashlab.outcome with
              | Crashlab.Completed ->
                  Printf.printf "outcome   : completed (%d I/O points)\n"
                    (Faults.point result.Crashlab.faults)
              | Crashlab.Crashed { point; site } ->
                  Printf.printf "outcome   : crashed at point %d (site %s)\n" point
                    (Faults.site_to_string site));
              Printf.printf "txns      : %d committed, %d failed/denied\n"
                result.Crashlab.committed result.Crashlab.failed;
              let action_str = function
                | Faults.Fail -> "fail"
                | Faults.Crash -> "crash"
                | Faults.Torn f -> Printf.sprintf "torn(%g)" f
              in
              List.iter
                (fun (point, site, act) ->
                  Printf.printf "fired     : point %d, site %s, action %s\n" point
                    (Faults.site_to_string site) (action_str act))
                (Faults.fired result.Crashlab.faults);
              let violations = Crashlab.verify ~ledger:base.Crashlab.snapshots result in
              (match violations with
              | [] ->
                  Printf.printf "recovery  : all invariants hold\n";
                  0
              | vs ->
                  List.iter (fun v -> Printf.printf "VIOLATION : %s\n" v) vs;
                  die "recovery invariants violated")
        end
    end
  in
  let plan =
    Arg.(value & opt string "" & info [ "fault-plan" ] ~docv:"PLAN"
           ~doc:"Deterministic fault plan, e.g. 'crash\\@137' or \
                 'torn(0.3)\\@wal_flush:2; fail\\@lock_acquire:7'. Replays the \
                 credit-card workload under the plan, recovers, and checks every \
                 invariant.")
  in
  let sweep =
    Arg.(value & flag & info [ "sweep" ]
           ~doc:"Exhaustive mode: crash at every addressable I/O point (plus torn \
                 WAL flush / page write variants) and verify recovery after each.")
  in
  let stride =
    Arg.(value & opt int 1 & info [ "stride" ] ~docv:"N"
           ~doc:"With --sweep, only crash at every N-th point.")
  in
  let seed =
    Arg.(value & opt int Ode.Crashlab.default_config.Ode.Crashlab.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Workload PRNG seed.")
  in
  let txns =
    Arg.(value & opt int Ode.Crashlab.default_config.Ode.Crashlab.txns
         & info [ "txns" ] ~docv:"N" ~doc:"Scripted workload transactions.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Replay a deterministic fault plan (or sweep all crash points) and verify recovery")
    Term.(const run $ plan $ sweep $ stride $ seed $ txns)

(* ------------------------------------------------------------------ *)
(* odectl demo *)

let demo_cmd =
  let run store =
    let kind = match store with "disk" -> `Disk | _ -> `Mem in
    let env = Session.create ~store:kind () in
    Credit_card.define_all env;
    let card, merchant =
      Session.with_txn env (fun txn ->
          let customer = Credit_card.new_customer env txn ~name:"demo" in
          let merchant = Credit_card.new_merchant env txn ~name:"store" in
          let card = Credit_card.new_card env txn ~customer ~limit:1000.0 () in
          ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
          ignore
            (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 500.0 ]);
          (card, merchant))
    in
    let show label =
      Session.with_txn env (fun txn ->
          Printf.printf "%-26s balance=%8.2f limit=%8.2f\n" label
            (Credit_card.balance env txn card) (Credit_card.limit env txn card))
    in
    Printf.printf "CredCard with DenyCredit + AutoRaiseLimit(500) on a %s store\n"
      (match kind with `Disk -> "disk" | `Mem -> "main-memory");
    show "start";
    Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:850.0);
    show "Buy(850)";
    (match Session.attempt env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:400.0) with
    | Some () -> print_endline "Buy(400): allowed"
    | None -> print_endline "Buy(400): denied by DenyCredit (transaction aborted)");
    show "after denial";
    Session.with_txn env (fun txn -> Credit_card.pay_bill env txn card ~amount:200.0);
    show "PayBill(200) -> raise"
  in
  let store =
    Arg.(value & opt string "mem" & info [ "store" ] ~docv:"KIND" ~doc:"'mem' or 'disk'.")
  in
  Cmd.v (Cmd.info "demo" ~doc:"Compact credit-card demo")
    Term.(const (fun store -> run store; 0) $ store)

(* ------------------------------------------------------------------ *)
(* odectl stats *)

module Net_server = Ode_net.Server
module Net_client = Ode_net.Client

(* Run [f] on a client connected to the server at [addr]; a bad address
   exits as a usage error, a refused connection or handshake as a
   failure. *)
let with_client addr f =
  match Net_server.addr_of_string addr with
  | Error m -> usage_die "bad address: %s" m
  | Ok a -> (
      match Net_client.connect a with
      | exception Net_client.Net_error m -> die "%s" m
      | exception Net_client.Remote { code; msg } ->
          die "handshake rejected (%s): %s" (Ode_net.Proto.err_code_name code) msg
      | c -> Fun.protect ~finally:(fun () -> Net_client.close c) (fun () -> f c))

let stats_cmd =
  (* Every session counter, once, under one header line. *)
  let print_value (k, v) = Printf.printf "  %-36s %d\n" k v in
  let print_counters ~engine ~rounds ~store ~mode counters =
    Printf.printf "session counters (%s engine, %d rounds, %s store, %s pipeline)\n" engine rounds
      store (Ode_storage.Commit_pipeline.mode_to_string mode);
    List.iter print_value counters
  in
  (* The capacity knobs the --capacity flag arms: small enough that the
     credit-card workload rolls segments, runs the incremental chain and
     triggers the auto-checkpoint policy within the default 50 rounds. *)
  let capacity_knobs capacity =
    if capacity then (Some 4096, Some 4, Some 16384) else (None, None, None)
  in
  (* One card per shard; each round submits, per shard, one 8-buys+payment
     transaction that also forwards a BigBuy to the next shard's card, so
     the routed / cross-shard / barrier counters all move. *)
  let run_sharded ~store ~engine ~kind ~engine_cfg ~mode ~rounds ~shards ~smode ~per_shard ~mvcc
      ~capacity =
    let wal_segment_bytes, ckpt_full_every, auto_checkpoint_bytes = capacity_knobs capacity in
    let fleet =
      Sharded.create ~store:kind ~engine:engine_cfg ~durability:mode ?wal_segment_bytes
        ?ckpt_full_every ?auto_checkpoint_bytes ~shards ~mode:smode
        ~schema:(fun ~shard:_ env -> Credit_card.define_all env)
        ()
    in
    let cards = Array.make shards None in
    for s = 0 to shards - 1 do
      Sharded.submit fleet ~key:s (fun ctx txn ->
          let env = ctx.Sharded.session in
          let customer = Credit_card.new_customer env txn ~name:"stats" in
          let merchant = Credit_card.new_merchant env txn ~name:"store" in
          let card = Credit_card.new_card env txn ~customer ~limit:1_000_000.0 () in
          ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
          ignore
            (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 500.0 ]);
          cards.(ctx.Sharded.shard) <- Some (card, merchant))
    done;
    Sharded.barrier fleet;
    Sharded.sync fleet;
    for s = 0 to shards - 1 do
      Sharded.with_shard fleet ~key:s Session.reset_counters
    done;
    for _ = 1 to rounds do
      for s = 0 to shards - 1 do
        Sharded.submit fleet ~key:s (fun ctx txn ->
            let env = ctx.Sharded.session in
            let card, merchant = Option.get cards.(ctx.Sharded.shard) in
            for _ = 1 to 8 do
              Credit_card.buy env txn card ~merchant ~amount:10.0
            done;
            Credit_card.pay_bill env txn card ~amount:80.0;
            let next_card, _ = Option.get cards.((ctx.Sharded.shard + 1) mod shards) in
            let big_buy = Session.user_event_id env txn card "BigBuy" in
            ctx.Sharded.forward ~payload:[ Value.Float 900.0 ] ~obj:next_card ~event:big_buy ())
      done;
      Sharded.barrier fleet
    done;
    Sharded.sync fleet;
    (* Exercise the lock-free read path once per shard so --mvcc shows
       live counters (pinned at each shard's own commit clock). *)
    if mvcc then
      for s = 0 to shards - 1 do
        ignore
          (Sharded.snapshot_read fleet ~key:s (fun env txn ->
               let card, _ = Option.get cards.(s) in
               Credit_card.balance env txn card))
      done;
    let counters = Sharded.counters fleet in
    Printf.printf "fleet (K=%d, mode=%s, %d rounds, %s store)\n" shards
      (Sharded.mode_to_string smode) rounds store;
    if per_shard then
      for i = 0 to shards - 1 do
        Printf.printf "shard %d\n" i;
        Session.counters (Sharded.session fleet i)
        |> List.filter (fun (k, _) -> String.starts_with ~prefix:"fleet." k)
        |> List.iter print_value
      done;
    print_counters ~engine ~rounds ~store ~mode counters;
    Sharded.shutdown fleet;
    match List.assoc "fleet.failed" counters with 0 -> 0 | n -> die "%d task(s) failed" n
  in
  (* A running server's registry, fetched with one wire [Stats] request. *)
  let run_connect addr =
    with_client addr (fun c ->
        let counters = Net_client.stats c in
        Printf.printf "server counters (%s)\n" addr;
        List.iter print_value counters;
        0)
  in
  let run store engine durability rounds shards smode_text per_shard replication mvcc capacity
      connect =
    let kind = match store with "disk" -> `Disk | _ -> `Mem in
    match connect with
    | Some addr -> run_connect addr
    | None ->
    match
      match engine with
      | "reference" -> Some Ode_trigger.Runtime.reference_config
      | "full" -> Some Ode_trigger.Runtime.default_config
      | _ -> None
    with
    | None -> die "unknown engine %S (expected 'full' or 'reference')" engine
    | Some engine_cfg -> begin
    match Ode_storage.Commit_pipeline.mode_of_string durability with
    | Error msg -> die "bad --durability: %s" msg
    | Ok mode -> begin
    match Sharded.mode_of_string smode_text with
    | Error msg -> usage_die "bad --mode: %s" msg
    | Ok _ when shards < 0 -> usage_die "--shards must be >= 0 (0 = unsharded)"
    | Ok _ when shards > 0 && replication > 0 ->
        die "--replication is unsharded-only (drop --shards)"
    | Ok smode when shards > 0 ->
        run_sharded ~store ~engine ~kind ~engine_cfg ~mode ~rounds ~shards ~smode ~per_shard
          ~mvcc ~capacity
    | Ok _ ->
    (* --replication with the default immediate durability upgrades to
       the quorum pipeline so the demo actually gates acks on the fleet. *)
    let mode =
      if replication > 0 && mode = Ode_storage.Commit_pipeline.Immediate then
        Ode_storage.Commit_pipeline.Quorum { n = 2; max_batch = 16; max_delay_ticks = 64 }
      else mode
    in
    let wal_segment_bytes, ckpt_full_every, auto_checkpoint_bytes = capacity_knobs capacity in
    let env =
      Session.create ~store:kind ~engine:engine_cfg ~durability:mode ?wal_segment_bytes
        ?ckpt_full_every ?auto_checkpoint_bytes ()
    in
    Credit_card.define_all env;
    let card, merchant =
      Session.with_txn env (fun txn ->
          let customer = Credit_card.new_customer env txn ~name:"stats" in
          let merchant = Credit_card.new_merchant env txn ~name:"store" in
          let card = Credit_card.new_card env txn ~customer ~limit:1_000_000.0 () in
          ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
          ignore
            (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 500.0 ]);
          (card, merchant))
    in
    Session.sync env;
    let mgr =
      if replication > 0 then Some (Replication.attach ~replicas:replication env)
      else None
    in
    Session.reset_counters env;
    for _ = 1 to rounds do
      Session.with_txn env (fun txn ->
          for _ = 1 to 8 do
            Credit_card.buy env txn card ~merchant ~amount:10.0
          done;
          Credit_card.pay_bill env txn card ~amount:80.0)
    done;
    Session.sync env;
    if mvcc then
      ignore (Session.with_snapshot env (fun txn -> Credit_card.balance env txn card));
    if capacity then Session.checkpoint env;
    print_counters ~engine ~rounds ~store ~mode (Session.counters env);
    (match mgr with
    | None -> ()
    | Some m ->
        Printf.printf "replication counters (%d replicas, %s pipeline)\n" replication
          (Ode_storage.Commit_pipeline.mode_to_string mode);
        List.iter
          (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
          (Replication.counters m));
    0
    end
    end
  in
  let store =
    Arg.(value & opt string "mem" & info [ "store" ] ~docv:"KIND" ~doc:"'mem' or 'disk'.")
  in
  let engine =
    Arg.(value & opt string "full" & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"'full' (filter + write-back cache + mvcc) or 'reference' \
                 (every layer off — the unoptimised posting path).")
  in
  let durability =
    Arg.(value & opt string "immediate" & info [ "durability" ] ~docv:"MODE"
           ~doc:"Commit pipeline mode: 'immediate' (flush per commit), 'group[:BATCH[:DELAY]]' \
                 (batched log forces, deterministic tick deadline), 'async[:LAG]' \
                 (ack before flush, bounded unflushed window), or \
                 'quorum[:N[:BATCH[:DELAY]]]' (batched forces whose acks also wait for N \
                 replicas — pair with --replication).")
  in
  let rounds =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"N"
           ~doc:"Workload transactions (8 buys + 1 payment each; per shard when sharded).")
  in
  let shards =
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"K"
           ~doc:"Partition the workload over K shard domains (0 = unsharded, the default). \
                 Each round then also forwards a cross-shard BigBuy envelope per shard.")
  in
  let smode =
    Arg.(value & opt string "det" & info [ "mode" ] ~docv:"MODE"
           ~doc:"Sharded execution mode: 'det' (deterministic barrier rounds) or 'free' \
                 (maximum throughput). Only meaningful with --shards.")
  in
  let per_shard =
    Arg.(value & flag & info [ "per-shard" ]
           ~doc:"With --shards, also print each shard's routed/forward/round/mailbox counters.")
  in
  let replication =
    Arg.(value & opt ~vopt:3 int 0 & info [ "replication" ] ~docv:"N"
           ~doc:"Attach N in-process WAL-shipping replicas (bare flag: 3) and print the \
                 replication counters (ship batches/bytes, per-replica durable offsets, \
                 quorum waits). With the default immediate durability the pipeline is \
                 upgraded to 'quorum:2:16:64' so acks actually gate on the fleet; pass \
                 --durability quorum:N:... to control the quorum explicitly. Unsharded only.")
  in
  let mvcc =
    Arg.(value & flag & info [ "mvcc" ]
           ~doc:"Also run one lock-free snapshot read (per shard when sharded), so the \
                 version-chain counters (mvcc.snapshot_reads, mvcc.s_locks_avoided, …) move.")
  in
  let capacity =
    Arg.(value & flag & info [ "capacity" ]
           ~doc:"Arm the million-object capacity engine (WAL segment rotation at 4 KiB, \
                 incremental checkpoints with a full anchor every 4th, auto-checkpoint at \
                 16 KiB of WAL growth), and checkpoint at the end when unsharded, so the \
                 WAL segment, checkpoint-chain and auto-checkpoint counters move.")
  in
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Run no workload: print the registry of the server at ADDR (unix:PATH or \
                 tcp:HOST:PORT), its net.* counters included. The other flags are ignored.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a credit-card posting workload and print every session counter, or print \
             a running server's counters")
    Term.(const run $ store $ engine $ durability $ rounds $ shards $ smode $ per_shard
          $ replication $ mvcc $ capacity $ connect)

(* ------------------------------------------------------------------ *)
(* odectl serve / odectl ping *)

let parse_listen s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | a :: rest -> (
        match Net_server.addr_of_string a with
        | Ok addr -> go (addr :: acc) rest
        | Error m -> Error m)
  in
  go [] (split_commas s)

let serve_cmd =
  let run listen shards store durability schema_file smoke =
    match parse_listen listen with
    | Error m -> usage_die "bad --listen: %s" m
    | Ok [] -> usage_die "no --listen address"
    | Ok addrs -> (
        let kind = match store with "disk" -> `Disk | _ -> `Mem in
        (
            match Ode_storage.Commit_pipeline.mode_of_string durability with
            | Error msg -> die "bad --durability: %s" msg
            | Ok dmode -> (
                match
                  if schema_file = "" then Ok None
                  else
                    try Ok (Some (In_channel.with_open_bin schema_file In_channel.input_all))
                    with Sys_error m -> Error m
                with
                | Error m -> die "cannot read --schema: %s" m
                | Ok schema_src ->
                    let fleet =
                      Sharded.create ~store:kind ~durability:dmode ~shards
                        ~mode:Sharded.Free
                        ~schema:(fun ~shard:_ env ->
                          Credit_card.define_all env;
                          match schema_src with
                          | None -> ()
                          | Some src ->
                              ignore
                                (Ode.Opp.load ~on_missing:`Stub env
                                   ~bindings:Ode.Opp.no_bindings src))
                        ()
                    in
                    let server = Net_server.start ~fleet ~listen:addrs () in
                    List.iter
                      (fun a ->
                        Printf.printf "odectl: listening on %s (%d shards, %s store)\n%!"
                          (Net_server.addr_to_string a) shards store)
                      (Net_server.addrs server);
                    let finish report =
                      Sharded.shutdown fleet;
                      Printf.printf
                        "odectl: server stopped: %d conns, %d drained, %d dropped requests \
                         (%d streams), %d txns rolled back%s\n"
                        report.Net_server.r_conns report.Net_server.r_drained
                        report.Net_server.r_dropped_requests report.Net_server.r_dropped_streams
                        report.Net_server.r_aborted_txns
                        (match report.Net_server.r_failure with
                        | None -> ""
                        | Some m -> ", reactor failure: " ^ m);
                      match report.Net_server.r_failure with None -> 0 | Some _ -> 1
                    in
                    if not smoke then finish (Net_server.wait server)
                    else begin
                      (* Self-test: ping, create, buy, post, graceful shutdown. *)
                      let c = Net_client.connect (List.hd (Net_server.addrs server)) in
                      Net_client.ping c;
                      Net_client.txn_begin c ~stream:1 ~key:0;
                      let customer =
                        Net_client.new_obj c ~stream:1 ~cls:"Customer"
                          [ ("name", Value.Str "smoke") ]
                      in
                      let merchant =
                        Net_client.new_obj c ~stream:1 ~cls:"Merchant"
                          [ ("name", Value.Str "shop") ]
                      in
                      let card =
                        Net_client.new_obj c ~stream:1 ~cls:"CredCard"
                          [ ("issuedTo", Value.Oid customer); ("credLim", Value.Float 1000.0) ]
                      in
                      ignore
                        (Net_client.invoke c ~stream:1 card "Buy"
                           [ Value.Oid merchant; Value.Float 100.0 ]);
                      Net_client.txn_commit c ~stream:1;
                      let posted = Net_client.post_event c ~fast:true card "BigBuy" in
                      let bal = Net_client.get_field c card "currBal" in
                      Net_client.shutdown c;
                      Net_client.close c;
                      let code = finish (Net_server.wait server) in
                      if code <> 0 then code
                      else if (not posted) || bal <> Value.Float 100.0 then
                        die "smoke check failed: posted=%b balance=%s" posted
                          (Value.to_string bal)
                      else begin
                        Printf.printf "odectl: serve smoke ok (balance 100.0, post delivered)\n";
                        0
                      end
                    end)))
  in
  let listen =
    Arg.(value & opt string "unix:/tmp/ode.sock"
         & info [ "listen" ] ~docv:"ADDRS"
             ~doc:"Comma-separated listen addresses: unix:PATH or tcp:HOST:PORT (port 0 \
                   picks a free port).")
  in
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"K"
             ~doc:"Shard-domain count for the fleet behind the server.")
  in
  let store =
    Arg.(value & opt string "mem" & info [ "store" ] ~docv:"KIND" ~doc:"'mem' or 'disk'.")
  in
  let durability =
    Arg.(value & opt string "immediate"
         & info [ "durability" ] ~docv:"MODE"
             ~doc:"Commit pipeline mode: immediate, group:N or async.")
  in
  let schema =
    Arg.(value & opt string ""
         & info [ "schema" ] ~docv:"FILE"
             ~doc:"Extra O++ schema loaded on every shard at startup (stub bindings), on \
                   top of the built-in credit-card classes.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Self-test: start, connect in-process, ping/create/buy/post, graceful \
                   shutdown; exit 0 on success.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the sharded engine over the Ode wire protocol (see docs/NET.md)")
    Term.(const run $ listen $ shards $ store $ durability $ schema $ smoke)

let ping_cmd =
  let run addr do_shutdown =
    with_client addr (fun c ->
        let t0 = Unix.gettimeofday () in
        Net_client.ping c;
        let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
        Printf.printf "PONG from %s (%.2f ms)\n" addr dt;
        if do_shutdown then Net_client.shutdown c;
        0)
  in
  let addr =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ADDR" ~doc:"Server address (unix:PATH or tcp:HOST:PORT).")
  in
  let do_shutdown =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"After the ping, ask the server to drain and stop.")
  in
  Cmd.v (Cmd.info "ping" ~doc:"Ping an Ode server (optionally shut it down)")
    Term.(const run $ addr $ do_shutdown)

let () =
  let doc = "Ode active-database reproduction tools" in
  let info = Cmd.info "odectl" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ fsm_cmd; figure1_cmd; opp_cmd; lint_cmd; footprint_cmd; demo_cmd; faults_cmd; stats_cmd;
        serve_cmd; ping_cmd ]
  in
  (* Strict command-line handling: cmdliner's default eval maps parse
     errors to exit 124. Here every run function returns its own exit code
     (1 for command failures, 2 for usage errors it detects itself), so
     the only [Error] cases left are cmdliner's own command-line errors —
     unknown flags or subcommands, bad option values — which exit 2 with
     usage on stderr; uncaught exceptions exit 125. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
