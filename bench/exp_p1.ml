(* P1 — Hot-path posting engine: event-filtered index and write-back state
   cache.

   Measures Runtime.post with pre-resolved event ids (no name lookup) on a
   synthetic "Hot" class: [alphabet] declared user events, a perpetual
   immediate trigger watching the sequence "e0 , e1" whose action is a
   no-op. The implicit star-any sequence prefix makes every other event a
   maskless non-accepting self-loop — exactly what the live-event bitset
   proves irrelevant — so posting e2 exercises the filtered fast path and
   alternating e0/e1 the full move-and-fire path.

     fan-in axis     activations per object, irrelevant events: the filter
                     should make cost ~independent of fan-in while the
                     reference engine pays a store read per activation
     alphabet axis   larger declared alphabets widen the live-event
                     bitsets and the sparse transition lists
     relevant mix    every post moves a machine: the write-back cache
                     helps, the filter can't
     macro           committed transactions (flush cost included)

   Acceptance (ISSUE 3): >= 2x posting throughput vs the reference engine
   on the high fan-in configuration. *)

open Bechamel
module Session = Ode.Session
module Runtime = Ode_trigger.Runtime
module Intern = Ode_event.Intern
module Table = Ode_util.Table

let ev_name i = Printf.sprintf "e%d" i

let engines =
  [
    ("full", Runtime.default_config);
    ("nocache", { Runtime.default_config with Runtime.cache = false });
    ("reference", Runtime.reference_config);
  ]

let engine name = List.assoc name engines

(* A fresh environment with one Hot object carrying [fan_in] activations
   of the watch trigger; returns it with a pre-resolved event-id lookup. *)
let setup ~engine ~alphabet ~fan_in =
  let env = Session.create ~store:`Mem ~engine () in
  let events = List.init alphabet (fun i -> Intern.User (ev_name i)) in
  Session.define_class env ~name:"Hot" ~events
    ~triggers:
      [
        {
          Session.tr_name = "watch";
          tr_params = [];
          tr_event = "e0 , e1";
          tr_perpetual = true;
          tr_coupling = Ode_trigger.Coupling.Immediate;
          tr_action = (fun _ _ -> ());
          tr_posts = [];
          tr_reads = [];
          tr_writes = [];
          tr_pure = true;
        };
      ]
    ();
  let obj =
    Session.with_txn env (fun txn ->
        let obj = Session.pnew env txn ~cls:"Hot" () in
        for _ = 1 to fan_in do
          ignore (Session.activate env txn obj ~trigger:"watch" ~args:[])
        done;
        obj)
  in
  let ev i =
    match Intern.find (Session.intern env) ~cls:"Hot" (Intern.User (ev_name i)) with
    | Some id -> id
    | None -> invalid_arg "setup: event not interned"
  in
  (env, obj, ev)

(* One prepared micro configuration: an open transaction and a posting
   thunk. [posts_per_run] normalises the bechamel estimate to ns/post. *)
type prepared = {
  p_label : string;
  p_env : Session.t;
  p_txn : Ode_storage.Txn.t;
  p_thunk : unit -> unit;
  p_posts_per_run : int;
}

let prepare ~label ~engine_name ~alphabet ~fan_in ~mix =
  let env, obj, ev = setup ~engine:(engine engine_name) ~alphabet ~fan_in in
  let rt = Session.runtime env in
  let txn = Session.begin_txn env in
  let thunk, per_run =
    match mix with
    | `Irrelevant ->
        let e = ev 2 in
        ((fun () -> Runtime.post rt txn ~obj ~event:e), 1)
    | `Relevant ->
        let e0 = ev 0 and e1 = ev 1 in
        ( (fun () ->
            Runtime.post rt txn ~obj ~event:e0;
            Runtime.post rt txn ~obj ~event:e1),
          2 )
  in
  { p_label = label; p_env = env; p_txn = txn; p_thunk = thunk; p_posts_per_run = per_run }

(* Run a batch of prepared configurations in one bechamel group and return
   (label, ns/post, minor words/post) rows in input order. *)
let run_batch ~quota prepared =
  let tests =
    List.map (fun p -> Test.make ~name:p.p_label (Staged.stage p.p_thunk)) prepared
  in
  let results = Bench_common.run_tests_alloc ~quota tests in
  let rows =
    List.map
      (fun p ->
        let ns, words =
          match List.find_opt (fun (n, _, _) -> n = p.p_label) results with
          | Some (_, ns, words) -> (ns, words)
          | None -> (nan, nan)
        in
        let d = float_of_int p.p_posts_per_run in
        (p.p_label, ns /. d, words /. d))
      prepared
  in
  List.iter (fun p -> Session.abort p.p_env p.p_txn) prepared;
  rows

let mix_name = function `Irrelevant -> "irrelevant" | `Relevant -> "relevant"

let record_row ?(latency = (nan, nan, nan)) ~mix ~fan_in ~alphabet ~engine_name ~kind ~ns ~words
    () =
  let p50, p95, p99 = latency in
  Bench_common.record ~experiment:"p1"
    ~name:(Printf.sprintf "%s fan=%d alpha=%d %s" (mix_name mix) fan_in alphabet engine_name)
    ~params:
      [
        ("mix", Bench_common.S (mix_name mix));
        ("fan_in", Bench_common.I fan_in);
        ("alphabet", Bench_common.I alphabet);
        ("engine", Bench_common.S engine_name);
        ("kind", Bench_common.S kind);
      ]
    ~ns ~minor_words:words ~p50 ~p95 ~p99 ()

(* Committed transactions: [txns] transactions of [posts] irrelevant posts
   each, wall-clocked end to end so commit-prepare flushes are charged;
   per-transaction latencies feed the p50/p95/p99 columns. *)
let macro ~engine_name ~alphabet ~fan_in ~txns ~posts =
  let env, obj, ev = setup ~engine:(engine engine_name) ~alphabet ~fan_in in
  let rt = Session.runtime env in
  let e = ev 2 in
  let lats = ref [] in
  let (), ns =
    Bench_common.wall (fun () ->
        lats :=
          Bench_common.timed_iters txns (fun _ ->
              Session.with_txn env (fun txn ->
                  for _ = 1 to posts do
                    Runtime.post rt txn ~obj ~event:e
                  done)))
  in
  (env, ns /. float_of_int (txns * posts), Bench_common.percentiles !lats)

let print_part ~columns rows =
  let table = Table.create ~columns in
  List.iter (fun cells -> Table.add_row table cells) rows;
  Table.print table

let run () =
  Bench_common.section "P1"
    "hot-path posting engine: filter + write-back cache";
  let smoke = !Bench_common.smoke in
  let quota = if smoke then 0.05 else 0.25 in
  let fan_ins = if smoke then [ 1; 8 ] else [ 1; 8; 64 ] in
  let alphabets = if smoke then [ 4; 32 ] else [ 4; 32; 128 ] in
  let high_fan = List.fold_left max 1 fan_ins in

  (* --- fan-in axis, irrelevant events --------------------------------- *)
  Bench_common.note "\nIrrelevant events (filtered path), alphabet=32:\n";
  let prepared =
    List.concat_map
      (fun fan_in ->
        List.map
          (fun engine_name ->
            ( fan_in,
              engine_name,
              prepare
                ~label:(Printf.sprintf "fan=%d %s" fan_in engine_name)
                ~engine_name ~alphabet:32 ~fan_in ~mix:`Irrelevant ))
          [ "full"; "reference" ])
      fan_ins
  in
  let rows = run_batch ~quota (List.map (fun (_, _, p) -> p) prepared) in
  let fan_results =
    List.map2
      (fun (fan_in, engine_name, _) (_, ns, words) ->
        record_row ~mix:`Irrelevant ~fan_in ~alphabet:32 ~engine_name ~kind:"micro" ~ns ~words ();
        (fan_in, engine_name, ns, words))
      prepared rows
  in
  let ns_at fan_in engine_name =
    match
      List.find_opt (fun (f, e, _, _) -> f = fan_in && e = engine_name) fan_results
    with
    | Some (_, _, ns, _) -> ns
    | None -> nan
  in
  print_part
    ~columns:
      [
        ("fan-in", Table.Right);
        ("full ns/post", Table.Right);
        ("reference ns/post", Table.Right);
        ("speedup", Table.Right);
        ("full minor w/post", Table.Right);
      ]
    (List.map
       (fun fan_in ->
         let full = ns_at fan_in "full" and reference = ns_at fan_in "reference" in
         let words =
           match List.find_opt (fun (f, e, _, _) -> f = fan_in && e = "full") fan_results with
           | Some (_, _, _, w) -> w
           | None -> nan
         in
         [
           string_of_int fan_in;
           Bench_common.ns_cell full;
           Bench_common.ns_cell reference;
           Bench_common.ratio_cell full reference;
           Bench_common.ns_cell words;
         ])
       fan_ins);
  let speedup = ns_at high_fan "reference" /. ns_at high_fan "full" in
  Bench_common.note "speedup at fan-in %d: %.2fx (acceptance: >= 2x)\n" high_fan speedup;
  Bench_common.summarize "high_fan_in" (Bench_common.I high_fan);
  Bench_common.summarize "high_fan_in_speedup" (Bench_common.F speedup);

  (* --- alphabet axis, irrelevant events ------------------------------- *)
  Bench_common.note "\nIrrelevant events across alphabet sizes, fan-in=8:\n";
  let prepared =
    List.concat_map
      (fun alphabet ->
        List.map
          (fun engine_name ->
            ( alphabet,
              engine_name,
              prepare
                ~label:(Printf.sprintf "alpha=%d %s" alphabet engine_name)
                ~engine_name ~alphabet ~fan_in:8 ~mix:`Irrelevant ))
          [ "full"; "reference" ])
      alphabets
  in
  let rows = run_batch ~quota (List.map (fun (_, _, p) -> p) prepared) in
  let alpha_results =
    List.map2
      (fun (alphabet, engine_name, _) (_, ns, words) ->
        record_row ~mix:`Irrelevant ~fan_in:8 ~alphabet ~engine_name ~kind:"micro" ~ns ~words ();
        (alphabet, engine_name, ns))
      prepared rows
  in
  let ns_alpha alphabet engine_name =
    match List.find_opt (fun (a, e, _) -> a = alphabet && e = engine_name) alpha_results with
    | Some (_, _, ns) -> ns
    | None -> nan
  in
  print_part
    ~columns:
      [
        ("alphabet", Table.Right);
        ("full ns/post", Table.Right);
        ("reference ns/post", Table.Right);
        ("speedup", Table.Right);
      ]
    (List.map
       (fun alphabet ->
         let full = ns_alpha alphabet "full" and reference = ns_alpha alphabet "reference" in
         [
           string_of_int alphabet;
           Bench_common.ns_cell full;
           Bench_common.ns_cell reference;
           Bench_common.ratio_cell full reference;
         ])
       alphabets);

  (* --- relevant events: every post moves a machine --------------------- *)
  Bench_common.note
    "\nRelevant events (e0,e1 alternating: every post moves all machines), fan-in=8, alphabet=32:\n";
  let prepared =
    List.map
      (fun engine_name ->
        ( engine_name,
          prepare ~label:("moves " ^ engine_name) ~engine_name ~alphabet:32 ~fan_in:8
            ~mix:`Relevant ))
      [ "full"; "nocache"; "reference" ]
  in
  let rows = run_batch ~quota (List.map snd prepared) in
  let move_results =
    List.map2
      (fun (engine_name, _) (_, ns, words) ->
        record_row ~mix:`Relevant ~fan_in:8 ~alphabet:32 ~engine_name ~kind:"micro" ~ns ~words ();
        (engine_name, ns, words))
      prepared rows
  in
  let ref_ns =
    match List.find_opt (fun (e, _, _) -> e = "reference") move_results with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  print_part
    ~columns:
      [
        ("engine", Table.Left);
        ("ns/post", Table.Right);
        ("minor w/post", Table.Right);
        ("speedup vs reference", Table.Right);
      ]
    (List.map
       (fun (engine_name, ns, words) ->
         [
           engine_name;
           Bench_common.ns_cell ns;
           Bench_common.ns_cell words;
           Bench_common.ratio_cell ns ref_ns;
         ])
       move_results);

  (* --- macro: committed transactions, flush cost included -------------- *)
  let txns = if smoke then 5 else 50 in
  let posts = if smoke then 50 else 200 in
  Bench_common.note
    "\nCommitted transactions (%d txns x %d irrelevant posts, fan-in=%d), wall clock:\n" txns
    posts high_fan;
  let macro_rows =
    List.map
      (fun engine_name ->
        let env, ns, latency = macro ~engine_name ~alphabet:32 ~fan_in:high_fan ~txns ~posts in
        record_row ~latency ~mix:`Irrelevant ~fan_in:high_fan ~alphabet:32 ~engine_name
          ~kind:"macro" ~ns ~words:nan ();
        (engine_name, env, ns))
      [ "full"; "reference" ]
  in
  let ref_macro =
    match List.find_opt (fun (e, _, _) -> e = "reference") macro_rows with
    | Some (_, _, ns) -> ns
    | None -> nan
  in
  print_part
    ~columns:
      [ ("engine", Table.Left); ("ns/post", Table.Right); ("speedup vs reference", Table.Right) ]
    (List.map
       (fun (engine_name, _, ns) ->
         [ engine_name; Bench_common.ns_cell ns; Bench_common.ratio_cell ns ref_macro ])
       macro_rows);
  (match List.find_opt (fun (e, _, _) -> e = "full") macro_rows with
  | Some (_, env, _) ->
      let c = Ode_util.Metrics.get (Runtime.metrics (Session.runtime env)) in
      Printf.printf
        "full-engine counters: posts=%d probes=%d index_skips=%d cache_hits=%d \
         cache_misses=%d cache_flushes=%d state_writes=%d\n"
        (c "posts") (c "index_probes") (c "index_skips") (c "cache_hits") (c "cache_misses")
        (c "cache_flushes") (c "state_writes")
  | None -> ())
