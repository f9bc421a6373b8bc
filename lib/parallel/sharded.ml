(* Domain-parallel sharded execution engine.

   Objects are hash-partitioned by oid across K shards: shard i owns
   every oid ≡ i (mod K), enforced at the source by the object store's
   rid striding ([Session.create ~shard:(i, K)]) — an object's home
   shard is literally [oid mod K], no directory needed. Each shard is a
   complete, independent [Session] (its own lock manager, stores, WALs,
   commit pipeline and trigger runtime) running on its own OCaml 5
   domain, so shard-local transactions need zero cross-shard
   coordination — the paper's TriggerState is keyed by (trigger, object)
   and every posted event targets one object's machines (§5.2–§5.4), so
   trigger detection partitions perfectly along with the data.

   The router (the caller's domain) dispatches transactions to their
   home shard over bounded SPSC mailboxes ({!Mailbox}). Cross-shard
   posts are not executed remotely: the originating task seals them into
   envelopes (object, interned event id, payload) which are delivered to
   the owning shard only after the originating transaction commits —
   envelopes of aborted transactions are dropped with the rest of the
   transaction's effects.

   Two execution modes:

   - [Deterministic]: logical-tick barrier rounds. A round delivers
     (1) the previous round's envelopes, sorted by (submission seq,
     emission index) — a total order independent of K — then (2) the
     round's submitted tasks in submission order, then a round barrier.
     Every observable (firing order, committed state, even WAL bytes at
     K=1) is a pure function of the input schedule.

   - [Free]: no barrier; the router pushes tasks as they arrive, shards
     chew through their mailboxes concurrently, envelopes travel
     directly shard-to-shard through the unbounded forward lane.
     Maximum throughput, no cross-shard ordering promise.

   A fleet runs on exactly K domains, one per shard for its whole life:
   worker i makes its session, runs the schema callback (which may capture
   only per-shard or synchronised mutable state) with its own intern
   table, and then serves the shard it built. Event ids agree because the
   schema defines the same classes in the same order on every shard
   (eventRep assigns the next dense id to an unseen pair, §5.2); the
   snapshots are compared once every shard is built. *)

module Session = Ode.Session
module Oid = Ode_objstore.Oid
module Value = Ode_objstore.Value
module Intern = Ode_event.Intern
module Faults = Ode_storage.Faults
module Txn = Ode_storage.Txn
module Metrics = Ode_util.Metrics

type mode = Deterministic | Free

let mode_to_string = function Deterministic -> "det" | Free -> "free"

let mode_of_string = function
  | "det" | "deterministic" -> Ok Deterministic
  | "free" -> Ok Free
  | s -> Error (Printf.sprintf "unknown mode %S (have: det, free)" s)

type envelope = {
  env_obj : Oid.t;
  env_event : int;  (* interned global event id *)
  env_payload : Value.t list;
  env_seq : int;  (* submission index of the originating task *)
  env_emit : int;  (* emission index within that task *)
}

(* (seq, emit) is unique per envelope and assigned before any routing
   decision, so this order is total and independent of K. *)
let compare_envelope a b = compare (a.env_seq, a.env_emit) (b.env_seq, b.env_emit)

type ctx = {
  shard : int;
  session : Session.t;
  forward : ?payload:Value.t list -> obj:Oid.t -> event:int -> unit -> unit;
      (** Seal a cross-shard post into an envelope. Buffered until the
          enclosing transaction commits; dropped if it aborts. Applied at
          the destination in deterministic round order ([Deterministic])
          or as soon as delivered ([Free]) — deferred even when the
          destination is the originating shard itself, so the semantics
          do not depend on K. *)
}

type task = ctx -> Txn.t -> unit

type msg =
  | Run of { seq : int; task : task; enq : float }
  | Apply of envelope
  | Foreign of (Session.t -> unit)
  | Round_end
  | Quit

(* ---------------- small synchronisation helpers ---------------- *)

type 'a slot = { smu : Mutex.t; scond : Condition.t; mutable sval : 'a option }

let slot_create () = { smu = Mutex.create (); scond = Condition.create (); sval = None }

let slot_put s v =
  Mutex.lock s.smu;
  s.sval <- Some v;
  Condition.signal s.scond;
  Mutex.unlock s.smu

let slot_take s =
  Mutex.lock s.smu;
  let rec wait () =
    match s.sval with
    | Some v ->
        s.sval <- None;
        v
    | None ->
        Condition.wait s.scond s.smu;
        wait ()
  in
  let v = wait () in
  Mutex.unlock s.smu;
  v

(* Outstanding-message counter: [Free]-mode quiescence. A task's child
   envelopes are registered before the task itself is retired, so the
   count only reaches zero when the whole causal tree has drained. *)
type counter = { cmu : Mutex.t; ccond : Condition.t; mutable live : int }

let counter_create () = { cmu = Mutex.create (); ccond = Condition.create (); live = 0 }

let counter_incr c =
  Mutex.lock c.cmu;
  c.live <- c.live + 1;
  Mutex.unlock c.cmu

let counter_decr c =
  Mutex.lock c.cmu;
  c.live <- c.live - 1;
  if c.live = 0 then Condition.broadcast c.ccond;
  Mutex.unlock c.cmu

let counter_wait_zero c =
  Mutex.lock c.cmu;
  while c.live <> 0 do
    Condition.wait c.ccond c.cmu
  done;
  Mutex.unlock c.cmu

(* ---------------- shards ---------------- *)

type round_reply = { rr_outbox : envelope list (* emission order *) }

type shard = {
  sh_index : int;
  sh_session : Session.t;
  sh_mailbox : msg Mailbox.t;
  sh_done : round_reply slot;
  (* Written only by the shard's domain; read by the router at quiescent
     points (after a round barrier or free-mode drain — both publish
     through a mutex). *)
  sh_tasks : Metrics.counter;
  sh_committed : Metrics.counter;
  sh_aborted : Metrics.counter;
  sh_failed : Metrics.counter;
  sh_forwards_out : Metrics.counter;
  sh_forwards_in : Metrics.counter;
  sh_foreign : Metrics.counter;
      (* foreign requests ({!post_foreign}) executed — the network
         front-end's entry lane *)
  sh_trigger_forwards : Metrics.counter;
      (* forwards emitted while a trigger action was on the stack — the
         observable counterpart of the analyzer's cross-shard affinity
         prediction *)
  mutable sh_rounds : int;  (* a peak: a reset must not rewind the round clock *)
  mutable sh_outbox : envelope list;  (* newest first; Deterministic only *)
  mutable sh_latencies : float list;  (* seconds per completed task, newest first *)
  mutable sh_crashed : string option;  (* Injected_crash description *)
  mutable sh_last_error : string option;
}

type t = {
  k : int;
  mode : mode;
  shards : shard array;
  domains : unit Domain.t array;
  pending : counter;
  mutable next_seq : int;
  mutable queued : (int * int * task) list;  (* (seq, shard, task), newest first *)
  mutable envelopes : envelope list;  (* to deliver next round; unsorted *)
  mutable stopped : bool;
}

let shard_count t = t.k
let mode t = t.mode
let shard_of t key = ((key mod t.k) + t.k) mod t.k
let home_of t oid = shard_of t (Oid.to_rid oid |> Ode_storage.Rid.to_int)

let session t i =
  if i < 0 || i >= t.k then invalid_arg "Sharded.session: shard index out of range";
  t.shards.(i).sh_session

(* ---------------- worker ---------------- *)

let record_latency sh enq = sh.sh_latencies <- (Unix.gettimeofday () -. enq) :: sh.sh_latencies

let deliver_free t e =
  counter_incr t.pending;
  Mailbox.push_forward t.shards.(home_of t e.env_obj).sh_mailbox (Apply e)

let run_task t sh ~seq task =
  let emitted = ref 0 in
  let buffered = ref [] in
  let ctx =
    {
      shard = sh.sh_index;
      session = sh.sh_session;
      forward =
        (fun ?(payload = []) ~obj ~event () ->
          let e =
            { env_obj = obj; env_event = event; env_payload = payload; env_seq = seq;
              env_emit = !emitted }
          in
          incr emitted;
          if Ode_trigger.Runtime.in_firing (Session.runtime sh.sh_session) then
            Metrics.incr sh.sh_trigger_forwards;
          buffered := e :: !buffered);
    }
  in
  Metrics.incr sh.sh_tasks;
  match Session.with_txn sh.sh_session (fun txn -> task ctx txn) with
  | () ->
      Metrics.incr sh.sh_committed;
      let out = List.rev !buffered in
      Metrics.add sh.sh_forwards_out (List.length out);
      (match t.mode with
      | Deterministic -> sh.sh_outbox <- List.rev_append out sh.sh_outbox
      | Free -> List.iter (deliver_free t) out)
  | exception Session.Aborted -> Metrics.incr sh.sh_aborted

let apply_envelope sh e =
  Metrics.incr sh.sh_forwards_in;
  match
    Session.with_txn sh.sh_session (fun txn ->
        (* The target may have been deleted since the envelope was
           sealed; a post to a dead object is a no-op, not an error. *)
        if Session.exists sh.sh_session txn e.env_obj then
          Session.post_event_id ~args:e.env_payload sh.sh_session txn e.env_obj
            ~event:e.env_event)
  with
  | () -> Metrics.incr sh.sh_committed
  | exception Session.Aborted -> Metrics.incr sh.sh_aborted

(* After an injected crash the shard's stores are gone: skip all further
   work (the messages are consumed and discarded so the fleet's protocol
   keeps moving), remember why, and let the router decide. *)
let guarded sh f =
  if sh.sh_crashed = None then
    match f () with
    | () -> ()
    | exception Faults.Injected_crash { point; site } ->
        sh.sh_crashed <-
          Some
            (Printf.sprintf "injected crash at point %d (%s)" point (Faults.site_to_string site))
    | exception e ->
        Metrics.incr sh.sh_failed;
        sh.sh_last_error <- Some (Printexc.to_string e)

let rec worker_loop t sh =
  match Mailbox.pop sh.sh_mailbox with
  | Quit -> ()
  | Round_end ->
      sh.sh_rounds <- sh.sh_rounds + 1;
      let out = List.rev sh.sh_outbox in
      sh.sh_outbox <- [];
      slot_put sh.sh_done { rr_outbox = out };
      worker_loop t sh
  | Run { seq; task; enq } ->
      guarded sh (fun () -> run_task t sh ~seq task);
      record_latency sh enq;
      if t.mode = Free then counter_decr t.pending;
      worker_loop t sh
  | Apply e ->
      guarded sh (fun () -> apply_envelope sh e);
      if t.mode = Free then counter_decr t.pending;
      worker_loop t sh
  | Foreign f ->
      (* Foreign closures (the network server's requests) manage their own
         transactions and must never leak an exception — [guarded] is only
         the crash/last-resort backstop keeping the shard protocol alive. *)
      Metrics.incr sh.sh_foreign;
      guarded sh (fun () -> f sh.sh_session);
      if t.mode = Free then counter_decr t.pending;
      worker_loop t sh

(* ---------------- construction ---------------- *)

(* Runs on the shard's own domain, so everything the shard allocates —
   session, mailbox, counters — belongs to the domain that serves it. *)
let make_shard ~mailbox_capacity i session =
  let m = Metrics.create () in
  let counter = Metrics.counter m in
  let sh =
    {
      sh_index = i;
      sh_session = session;
      sh_mailbox = Mailbox.create ~capacity:mailbox_capacity;
      sh_done = slot_create ();
      sh_tasks = counter "tasks";
      sh_committed = counter "committed";
      sh_aborted = counter "aborted";
      sh_failed = counter "failed";
      sh_forwards_out = counter "forwards_out";
      sh_forwards_in = counter "forwards_in";
      sh_foreign = counter "foreign";
      sh_trigger_forwards = counter "trigger_forwards";
      sh_rounds = 0;
      sh_outbox = [];
      sh_latencies = [];
      sh_crashed = None;
      sh_last_error = None;
    }
  in
  Metrics.peak m "rounds" (fun () -> sh.sh_rounds);
  Metrics.peak m "mailbox_hwm" (fun () -> Mailbox.high_water sh.sh_mailbox);
  Metrics.attach (Session.metrics session) ~prefix:"fleet" m;
  sh

let check_interns shards =
  let snap = Intern.snapshot (Session.intern shards.(0).sh_session) in
  shards
  |> Array.iter (fun sh ->
         if not (Intern.equal_snapshot (Intern.snapshot (Session.intern sh.sh_session)) snap) then
           invalid_arg
             (Printf.sprintf
                "Ode_parallel: shard %d interned a different event-id assignment than shard 0 \
                 (schema must define the same classes in the same order on every shard)"
                sh.sh_index))

(* Worker [i]'s whole life: [make i], [schema ~shard:i], report, then
   serve the fleet it is handed ([Some t]) or quit ([None]). A spawn that
   fails reports as that shard's failure. On any failure every worker is
   told to quit and joined before the lowest shard's exception is
   re-raised; the intern snapshots are compared under the same rule. *)
let build_fleet ~k ~mode ~mailbox_capacity ~schema ~make =
  (* A report returns the built shard or re-raises the build's failure. *)
  let reports = Array.init k (fun _ -> slot_create ()) in
  let starts = Array.init k (fun _ -> slot_create ()) in
  let fail i e =
    let bt = Printexc.get_raw_backtrace () in
    slot_put reports.(i) (fun () -> Printexc.raise_with_backtrace e bt)
  in
  let worker i () =
    match
      let session = make i in
      schema ~shard:i session;
      make_shard ~mailbox_capacity i session
    with
    | sh ->
        slot_put reports.(i) (fun () -> sh);
        Option.iter (fun t -> worker_loop t sh) (slot_take starts.(i))
    | exception e -> fail i e
  in
  let domains =
    Array.init k (fun i ->
        match Domain.spawn (worker i) with d -> Some d | exception e -> fail i e; None)
  in
  match
    let shards = Array.map (fun report -> slot_take report ()) reports in
    check_interns shards;
    shards
  with
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Array.iter (fun start -> slot_put start None) starts;
      Array.iter (Option.iter Domain.join) domains;
      Printexc.raise_with_backtrace e bt
  | shards ->
      let t =
        {
          k;
          mode;
          shards;
          domains = Array.map Option.get domains;
          pending = counter_create ();
          next_seq = 0;
          queued = [];
          envelopes = [];
          stopped = false;
        }
      in
      Array.iter (fun start -> slot_put start (Some t)) starts;
      t

let create ?(store = `Mem) ?page_size ?pool_capacity ?io_spin ?flush_spin ?flush_sleep
    ?durability ?engine ?(mailbox_capacity = 256) ?shard_faults ?wal_segment_bytes
    ?ckpt_full_every ?auto_checkpoint_bytes ~shards ~mode ~schema () =
  if shards < 1 then invalid_arg "Sharded.create: shards must be >= 1";
  let k = shards in
  let make i =
    let faults = match shard_faults with Some f -> f i | None -> Faults.create () in
    Session.create ~store ?page_size ?pool_capacity ?io_spin ?flush_spin ?flush_sleep
      ?durability ~faults ~shard:(i, k) ?engine ?wal_segment_bytes ?ckpt_full_every
      ?auto_checkpoint_bytes ()
  in
  build_fleet ~k ~mode ~mailbox_capacity ~schema ~make

(* ---------------- routing ---------------- *)

let check_live t what = if t.stopped then invalid_arg ("Sharded." ^ what ^ ": fleet is stopped")

let submit t ~key task =
  check_live t "submit";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let home = shard_of t key in
  match t.mode with
  | Deterministic -> t.queued <- (seq, home, task) :: t.queued
  | Free ->
      counter_incr t.pending;
      Mailbox.push t.shards.(home).sh_mailbox (Run { seq; task; enq = Unix.gettimeofday () })

(* Thread-safe foreign entry lane: the network server injects requests
   into a shard's mailbox through the unbounded MPSC forward lane, from
   any domain, without touching the single-caller router state
   ([next_seq]/[queued] stay router-only). [Free] mode only: in
   [Deterministic] mode the forward lane is unused between barriers, so a
   foreign request would sit undelivered until the next round — reject it
   loudly instead of stalling the caller. Foreign closures run on the
   shard's own domain against its session; they own their transaction
   boundaries and their error handling (a completion callback inside the
   closure is how results travel back). Callers must quiesce their own
   traffic before [shutdown]/[crash]. *)
let check_foreign t ~shard =
  check_live t "post_foreign";
  if t.mode <> Free then
    invalid_arg "Sharded.post_foreign: foreign requests need Free mode";
  if shard < 0 || shard >= t.k then
    invalid_arg "Sharded.post_foreign: shard index out of range"

let post_foreign t ~shard f =
  check_foreign t ~shard;
  counter_incr t.pending;
  Mailbox.push_forward t.shards.(shard).sh_mailbox (Foreign f)

(* Batched variant: one mailbox lock + one shard wakeup for the whole
   list — the reactor accumulates a cycle's dispatches per shard and
   flushes them here before blocking again. *)
let post_foreign_batch t ~shard fs =
  match fs with
  | [] -> ()
  | fs ->
      check_foreign t ~shard;
      Mutex.lock t.pending.cmu;
      t.pending.live <- t.pending.live + List.length fs;
      Mutex.unlock t.pending.cmu;
      Mailbox.push_forward_many t.shards.(shard).sh_mailbox
        (List.map (fun f -> Foreign f) fs)

(* One deterministic round: prior envelopes (in (seq, emit) order), then
   this round's tasks (in submission order), then the barrier. *)
let barrier t =
  check_live t "barrier";
  match t.mode with
  | Free -> ()
  | Deterministic ->
      let envs = List.sort compare_envelope t.envelopes in
      t.envelopes <- [];
      let runs = List.rev t.queued in
      t.queued <- [];
      if envs <> [] || runs <> [] then begin
        List.iter
          (fun e -> Mailbox.push t.shards.(home_of t e.env_obj).sh_mailbox (Apply e))
          envs;
        let now = Unix.gettimeofday () in
        List.iter
          (fun (seq, home, task) ->
            Mailbox.push t.shards.(home).sh_mailbox (Run { seq; task; enq = now }))
          runs;
        Array.iter (fun sh -> Mailbox.push sh.sh_mailbox Round_end) t.shards;
        (* The barrier: every shard has drained its round and handed back
           its outbox (the slot's mutex publishes the shard's session
           state to the router). *)
        Array.iter
          (fun sh ->
            let reply = slot_take sh.sh_done in
            t.envelopes <- List.rev_append reply.rr_outbox t.envelopes)
          t.shards
      end

let rec drain t =
  match t.mode with
  | Free -> counter_wait_zero t.pending
  | Deterministic -> if t.queued <> [] || t.envelopes <> [] then (barrier t; drain t)

let sync t =
  check_live t "sync";
  drain t;
  (* Every live shard is forced; the first fault is re-raised after. *)
  let first = ref None in
  Array.iter
    (fun sh ->
      if sh.sh_crashed = None then
        try Session.sync sh.sh_session
        with Faults.Injected_fault _ as e -> if !first = None then first := Some e)
    t.shards;
  Option.iter raise !first

let crashed_shards t =
  Array.to_list t.shards
  |> List.filter_map (fun sh ->
         match sh.sh_crashed with Some why -> Some (sh.sh_index, why) | None -> None)

let failures t =
  Array.to_list t.shards
  |> List.filter_map (fun sh ->
         match sh.sh_last_error with Some e -> Some (sh.sh_index, e) | None -> None)

(* Read against a shard's session from the router. Only sound at a
   quiescent point (after {!sync} or {!barrier}): the workers are blocked
   on their mailboxes and the barrier/drain handshake published their
   writes. *)
let with_shard t ~key f =
  let sh = t.shards.(shard_of t key) in
  f sh.sh_session

(* Lock-free read path: a snapshot transaction on the key's home shard,
   pinned at that shard's own commit clock (per-shard clocks — each
   shard's manager advances independently at its pipeline flush order). *)
let snapshot_read t ~key f =
  with_shard t ~key (fun session -> Session.with_snapshot session (fun txn -> f session txn))

let stop_workers t =
  Array.iter (fun sh -> Mailbox.push sh.sh_mailbox Quit) t.shards;
  Array.iter Domain.join t.domains;
  t.stopped <- true

let shutdown t =
  if not t.stopped then begin
    sync t;
    stop_workers t
  end

(* ---------------- crash / recovery ---------------- *)

type fleet_image = { fl_images : Session.crash_image array }

(* Capture the fleet's durable state: every shard loses its volatile
   state (no sync — a crash is a crash), the WAL prefixes survive.
   In-flight envelopes are volatile too: forwards are at-most-once, lost
   if not yet applied at the crash (documented in docs/PERF.md). *)
let crash t =
  if not t.stopped then stop_workers t;
  { fl_images = Array.map (fun sh -> Session.crash sh.sh_session) t.shards }

let image_shards img = Array.length img.fl_images

let image_wals img i =
  if i < 0 || i >= Array.length img.fl_images then
    invalid_arg "Sharded.image_wals: shard index out of range";
  Session.image_wals img.fl_images.(i)

let recover ?durability ?(mailbox_capacity = 256) ?wal_segment_bytes ?ckpt_full_every
    ?auto_checkpoint_bytes ~mode ~schema img =
  let k = Array.length img.fl_images in
  if k < 1 then invalid_arg "Sharded.recover: empty fleet image";
  let make i =
    Session.recover ?durability ?wal_segment_bytes ?ckpt_full_every ?auto_checkpoint_bytes
      img.fl_images.(i)
  in
  build_fleet ~k ~mode ~mailbox_capacity ~schema ~make

(* ---------------- statistics ---------------- *)

let merged shards =
  Metrics.merge (List.map (fun sh -> Metrics.snapshot (Session.metrics sh.sh_session)) shards)

let counters t = merged (Array.to_list t.shards)

(* The records are views of the fleet.* entries, merged by kind:
   counters summed, rounds and mailbox high-water maxed. *)
let fleet_values shards =
  let values = merged shards in
  fun key -> List.assoc ("fleet." ^ key) values

type shard_stats = { ss_tasks : int; ss_foreign : int }

let shard_stats t =
  Array.to_list t.shards
  |> List.map (fun sh ->
         let v = fleet_values [ sh ] in
         { ss_tasks = v "tasks"; ss_foreign = v "foreign" })

type fleet_stats = {
  fs_tasks : int;  (* posts routed *)
  fs_committed : int;
  fs_aborted : int;
  fs_failed : int;
  fs_forwards : int;  (* cross-shard envelopes sent *)
  fs_trigger_forwards : int;  (* of which emitted inside a trigger firing *)
  fs_rounds : int;  (* barrier rounds (max over shards) *)
  fs_mailbox_hwm : int;  (* max over shards *)
}

let stats t =
  let v = fleet_values (Array.to_list t.shards) in
  {
    fs_tasks = v "tasks";
    fs_committed = v "committed";
    fs_aborted = v "aborted";
    fs_failed = v "failed";
    fs_forwards = v "forwards_out";
    fs_trigger_forwards = v "trigger_forwards";
    fs_rounds = v "rounds";
    fs_mailbox_hwm = v "mailbox_hwm";
  }

(* Per-task wall-clock latencies in seconds, all shards merged, oldest
   first. Deterministic mode measures from round dispatch, Free mode from
   router push — both include mailbox queueing. *)
let latencies t =
  Array.to_list t.shards |> List.concat_map (fun sh -> List.rev sh.sh_latencies)
