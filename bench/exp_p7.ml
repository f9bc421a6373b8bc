(* P7 — MVCC snapshot read path: lock-free reads under writer lock
   amplification.

   A mixed read/write workload over the mem store at a fixed 90/10
   read/write operation mix, sweeping the writer count W in {1,2,4,8}:
   W writer actors each run multi-step transactions of 16 updates, and
   9*W reader actors each run small transactions of 4 reads, one
   operation per scheduler turn (the same deterministic simulated
   concurrency as Ode_storage.Workload). 80% of operations target a
   64-record hot set, so writer lock footprints pile onto the records
   readers want — the trigger-style lock amplification the paper's §7
   measurements worry about.

   Two read paths are compared per W:

     locking   readers are regular 2PL transactions: every read takes an
               S lock, blocked turns spin (Would_block), reader/writer
               cycles deadlock and restart the reader
     mvcc      readers are snapshot transactions: reads resolve against
               the version chains at a timestamp pinned on first read —
               no locks, no blocking, no aborts

   Writers are identical 2PL transactions in both modes, so the sweep
   isolates the read path.

   Acceptance (ISSUE 8): mvcc read throughput stays flat (within 20%) as
   W grows 1 -> 8, and beats the locking path by >= 2x at W = 8;
   per-reader-transaction latency percentiles recorded in
   BENCH_P7.json. *)

module Store = Ode_storage.Store
module Txn = Ode_storage.Txn
module Mem_store = Ode_storage.Mem_store
module Lock_manager = Ode_storage.Lock_manager
module Prng = Ode_util.Prng
module Metrics = Ode_util.Metrics
module Table = Ode_util.Table

let n_records = 1024
let hot_set = 64
let hot_frac = 0.8
let writer_ops = 16 (* updates per writer transaction *)
let reader_ops = 4 (* reads per reader transaction *)
let readers_per_writer = 9 (* one op per turn -> 90/10 read/write mix *)

type mode = Locking | Mvcc

let mode_name = function Locking -> "locking" | Mvcc -> "mvcc"

type actor = {
  kind : [ `Writer | `Reader ];
  prng : Prng.t;
  mutable txn : Txn.t option;
  mutable remaining : int;
  mutable t0 : int64; (* first-begin of the current reader txn; 0 = none *)
}

type row = {
  r_mode : mode;
  r_writers : int;
  r_reads : int; (* completed read operations *)
  r_reads_per_sec : float;
  r_blocks : int; (* turns wasted blocked on a lock *)
  r_restarts : int; (* deadlock / write-conflict transaction restarts *)
  r_s_granted : int;
  r_s_avoided : int;
  r_p50 : float; (* reader txn begin -> commit latency, ns *)
  r_p95 : float;
  r_p99 : float;
}

let run_config ~mode ~writers ~rounds ~warmup ~seed =
  let mgr = Txn.create_mgr () in
  let store = Mem_store.ops (Mem_store.create ~mgr ~name:"p7" ()) in
  let prng = Prng.create ~seed in
  let payload tag = Bytes.of_string (Printf.sprintf "%-64s" tag) in
  let rids =
    let txn = Txn.begin_txn mgr in
    let a = Array.init n_records (fun i -> store.Store.insert txn (payload (string_of_int i))) in
    Txn.commit txn;
    a
  in
  let pick_rid p =
    if Prng.chance p hot_frac then rids.(Prng.int p hot_set) else rids.(Prng.int p n_records)
  in
  let reads = ref 0 in
  let blocks = ref 0 in
  let restarts = ref 0 in
  let reader_ns = ref 0L in (* wall time spent inside reader turns *)
  let latencies = ref [] in
  let actors =
    Array.init (writers + (readers_per_writer * writers)) (fun i ->
        {
          kind = (if i < writers then `Writer else `Reader);
          prng = Prng.split prng;
          txn = None;
          remaining = 0;
          t0 = 0L;
        })
  in
  let begin_actor a =
    let snapshot = a.kind = `Reader && mode = Mvcc in
    let txn = Txn.begin_txn ~snapshot mgr in
    a.txn <- Some txn;
    a.remaining <- (match a.kind with `Writer -> writer_ops | `Reader -> reader_ops);
    (* latency-to-success: a deadlock restart keeps the original t0 *)
    if a.kind = `Reader && a.t0 = 0L then a.t0 <- Monotonic_clock.now ();
    txn
  in
  let turn a =
    (* Reader turns are individually timed: [reader_ns] is the wall time
       the read path itself consumed — blocked turns (failed S-lock
       acquires, deadlock-detection walks) included, writer turns
       excluded, so the throughput comparison isolates the read path
       from the (identical-in-both-modes) 2PL writer machinery. *)
    let u0 = if a.kind = `Reader then Monotonic_clock.now () else 0L in
    let txn = match a.txn with Some txn -> txn | None -> begin_actor a in
    let op () =
      match a.kind with
      | `Writer -> store.Store.update txn (pick_rid a.prng) (payload "w")
      | `Reader ->
          ignore (store.Store.read txn (pick_rid a.prng));
          incr reads
    in
    (match op () with
    | () ->
        a.remaining <- a.remaining - 1;
        if a.remaining = 0 then begin
          Txn.commit txn;
          if a.kind = `Reader then begin
            latencies :=
              Int64.to_float (Int64.sub (Monotonic_clock.now ()) a.t0) :: !latencies;
            a.t0 <- 0L
          end;
          a.txn <- None
        end
    | exception Store.Would_block _ -> incr blocks
    | exception (Lock_manager.Deadlock _ | Store.Write_conflict _) ->
        Txn.abort txn;
        incr restarts;
        a.txn <- None);
    if a.kind = `Reader then
      reader_ns := Int64.add !reader_ns (Int64.sub (Monotonic_clock.now ()) u0)
  in
  (* Untimed warmup: fill the table's hash structure, grow the version
     chains to steady state and reach lock-contention equilibrium before
     the clock starts — the W=1 configs are otherwise too short to
     escape cold-start effects. *)
  for _ = 1 to warmup do
    Array.iter turn actors
  done;
  reads := 0;
  blocks := 0;
  restarts := 0;
  reader_ns := 0L;
  latencies := [];
  let locks = Lock_manager.metrics (Txn.lock_mgr mgr) in
  Metrics.reset locks;
  let counter name = Metrics.get store.Store.metrics name in
  let avoided0 = counter "mvcc.s_locks_avoided" in
  for _ = 1 to rounds do
    Array.iter turn actors
  done;
  Array.iter
    (fun a ->
      match a.txn with
      | Some txn -> (try Txn.abort txn with _ -> ())
      | None -> ())
    actors;
  let p50, p95, p99 = Bench_common.percentiles !latencies in
  {
    r_mode = mode;
    r_writers = writers;
    r_reads = !reads;
    r_reads_per_sec = float_of_int !reads /. (Int64.to_float !reader_ns /. 1e9);
    r_blocks = !blocks;
    r_restarts = !restarts;
    r_s_granted = Metrics.get locks "s_granted";
    r_s_avoided = counter "mvcc.s_locks_avoided" - avoided0;
    r_p50 = p50;
    r_p95 = p95;
    r_p99 = p99;
  }

let record row =
  Bench_common.record ~experiment:"p7"
    ~name:(Printf.sprintf "read-mix %s W=%d" (mode_name row.r_mode) row.r_writers)
    ~params:
      [
        ("mode", Bench_common.S (mode_name row.r_mode));
        ("writers", Bench_common.I row.r_writers);
        ("reads", Bench_common.I row.r_reads);
        ("reads_per_sec", Bench_common.F row.r_reads_per_sec);
        ("blocks", Bench_common.I row.r_blocks);
        ("restarts", Bench_common.I row.r_restarts);
        ("s_granted", Bench_common.I row.r_s_granted);
        ("s_locks_avoided", Bench_common.I row.r_s_avoided);
      ]
    ~ns:(1e9 /. row.r_reads_per_sec)
    ~p50:row.r_p50 ~p95:row.r_p95 ~p99:row.r_p99 ()

let print_rows rows =
  let table =
    Table.create
      ~columns:
        [
          ("mode", Table.Left);
          ("writers", Table.Right);
          ("reads", Table.Right);
          ("reads/s", Table.Right);
          ("blocks", Table.Right);
          ("restarts", Table.Right);
          ("S granted", Table.Right);
          ("S avoided", Table.Right);
          ("txn p50 ns", Table.Right);
          ("txn p95 ns", Table.Right);
          ("txn p99 ns", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          mode_name r.r_mode;
          string_of_int r.r_writers;
          string_of_int r.r_reads;
          Printf.sprintf "%.2fM" (r.r_reads_per_sec /. 1e6);
          string_of_int r.r_blocks;
          string_of_int r.r_restarts;
          string_of_int r.r_s_granted;
          string_of_int r.r_s_avoided;
          Bench_common.ns_cell r.r_p50;
          Bench_common.ns_cell r.r_p95;
          Bench_common.ns_cell r.r_p99;
        ])
    rows;
  Table.print table

let run () =
  Bench_common.section "P7" "MVCC snapshot reads vs 2PL locking reads under writer load";
  let smoke = !Bench_common.smoke in
  let rounds = if smoke then 200 else 3000 in
  let warmup = if smoke then 50 else 1000 in
  let seed = 0x9707L in
  let writer_counts = [ 1; 2; 4; 8 ] in
  Bench_common.note
    "\n90/10 read/write op mix, %d records (%d-record hot set, %.0f%% of ops), W writers x %d \
     updates/txn, 9W readers x %d reads/txn, %d*8/W rounds (fixed total work):\n"
    n_records hot_set (100.0 *. hot_frac) writer_ops reader_ops rounds;
  (* Fixed total work: rounds scale as 8/W so every config performs the
     same number of operations (and the same read count) — only the
     degree of writer concurrency varies. *)
  let rows =
    List.concat_map
      (fun mode ->
        List.map
          (fun w -> run_config ~mode ~writers:w ~rounds:(rounds * 8 / w) ~warmup:(warmup * 8 / w) ~seed)
          writer_counts)
      [ Locking; Mvcc ]
  in
  List.iter record rows;
  print_rows rows;
  let find mode w = List.find_opt (fun r -> r.r_mode = mode && r.r_writers = w) rows in
  match (find Mvcc 1, find Mvcc 8, find Locking 8) with
  | Some m1, Some m8, Some l8 ->
      let flatness = m8.r_reads_per_sec /. m1.r_reads_per_sec in
      let speedup = m8.r_reads_per_sec /. l8.r_reads_per_sec in
      Bench_common.note
        "\nmvcc W=8 vs W=1: %.2fx read throughput (acceptance: >= 0.8x, flat within 20%%)\n"
        flatness;
      Bench_common.note "mvcc vs locking at W=8: %.2fx read throughput (acceptance: >= 2x)\n"
        speedup;
      Bench_common.summarize "p7_mvcc_flatness_w8_vs_w1" (Bench_common.F flatness);
      Bench_common.summarize "p7_mvcc_speedup_vs_locking_w8" (Bench_common.F speedup)
  | _ -> Bench_common.note "\nacceptance rows missing (writer list changed?)\n"
