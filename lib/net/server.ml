module Sharded = Ode_parallel.Sharded
module Session = Ode.Session
module Opp = Ode.Opp
module Store = Ode_storage.Store
module Txn = Ode_storage.Txn
module Rid = Ode_storage.Rid
module Oid = Ode_objstore.Oid
module P = Proto
module Metrics = Ode_util.Metrics

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
    | _ -> Error (Printf.sprintf "bad port in %S" s)
  in
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (want unix:PATH or HOST:PORT)" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "bad address %S (want tcp:HOST:PORT)" s)
          | Some j ->
              tcp (String.sub rest 0 j)
                (String.sub rest (j + 1) (String.length rest - j - 1)))
      | host -> tcp host rest)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* ---------------- connection state ---------------- *)

(* A slot holds a stream's open interactive transaction. It is only ever
   touched from the transaction's home-shard domain; every request of an
   open transaction goes to that one shard, and the mailbox hand-off
   provides the happens-before between consecutive stream requests that
   land on different shards between transactions. *)
type slot = { mutable sl_txn : Txn.t option }

type pending = { p_sync : int; p_req : P.request }

type stream = {
  st_id : int;
  st_queue : pending Queue.t;
  mutable st_inflight : int;  (* requests of this stream on a shard *)
  mutable st_shard : int;  (* ... and their shard, -1 for a fan-out *)
  mutable st_txn : int option;  (* open txn's home shard, as of the last completion *)
  st_slot : slot;
}

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_chunks : P.Chunks.t;
  (* [c_mu] guards the outbox, shared with shard domains: *)
  c_mu : Mutex.t;
  c_out : Buffer.t;
  mutable c_out_frames : int;
  mutable c_dead : bool;
  (* reactor-only: *)
  mutable c_hello : bool;
  mutable c_closing : bool;  (* close once outbox flushed *)
  mutable c_inflight : int;
  mutable c_queued : int;
  mutable c_wpend : (bytes * int) option;  (* partial write carry-over *)
  c_streams : (int, stream) Hashtbl.t;
}

type done_msg =
  | D_op of { dconn : conn; dstream : int; dtxn : int option }
  | D_define of { dconn : conn; dstream : int }
  | D_part  (* one shard's share of a fan-out (define/stats) *)
  | D_abort  (* synthetic rollback issued by close/drain *)

type define_job = {
  dj_conn : conn;
  dj_sync : int;
  dj_stream : int;
  dj_source : string;
}

type report = {
  r_conns : int;
  r_drained : int;
  r_dropped_requests : int;
  r_dropped_streams : int;
  r_aborted_txns : int;
  r_abandoned : int;
  r_deadline_hit : bool;
  r_failure : string option;
}

type state = Running | Draining of float  (* absolute deadline *)

type t = {
  fleet : Sharded.t;
  k : int;
  bindings : Opp.bindings;
  max_frame : int;
  outbox_hwm : int;
  max_conn_inflight : int;
  drain_deadline : float;
  listeners : (Unix.file_descr * addr) list;
  bound : addr list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* completion lane, MPSC shard domains -> reactor: *)
  done_mu : Mutex.t;
  mutable done_q : done_msg list;  (* newest first *)
  (* reactor-only: *)
  read_buf : Bytes.t;
  wake_buf : Bytes.t;
  pending_posts : (Session.t -> unit) list array;  (* per shard, newest first *)
  mutable conns : conn list;
  mutable next_conn : int;
  mutable inflight : int;
  mutable state : state;
  defines : define_job Queue.t;
  mutable define_busy : bool;
  (* drain bookkeeping (reactor-only): *)
  mutable dr_drained : int;
  mutable dr_dropped_requests : int;
  mutable dr_dropped_streams : int;
  mutable dr_aborted_txns : int;
  mutable dr_conns : int;
  (* control plane: *)
  ctl_mu : Mutex.t;
  ctl_cond : Condition.t;
  mutable stop_req : float option option;  (* Some deadline_opt *)
  mutable result : report option;
  mutable joined : bool;
  mutable domain : unit Domain.t option;
  (* counters (reactor-written, racily readable): *)
  metrics : Metrics.t;
  n_accepted : Metrics.counter;
  n_closed : Metrics.counter;
  n_frames_in : Metrics.counter;
  n_frame_errors : Metrics.counter;
  n_replies : Metrics.counter;
  n_flushes : Metrics.counter;
  n_batched : Metrics.counter;
  n_dispatched : Metrics.counter;
  n_pipelined : Metrics.counter;
  n_defines : Metrics.counter;
  n_hello_rejects : Metrics.counter;
}

(* ---------------- reply plumbing (any domain) ---------------- *)

let wake t = try ignore (Unix.write_substring t.wake_w "!" 0 1) with _ -> ()

let enqueue_reply conn ~sync reply =
  let b = P.encode_reply ~sync reply in
  Mutex.lock conn.c_mu;
  if not conn.c_dead then begin
    Buffer.add_bytes conn.c_out b;
    conn.c_out_frames <- conn.c_out_frames + 1
  end;
  Mutex.unlock conn.c_mu

let complete t msg =
  Mutex.lock t.done_mu;
  let was_empty = t.done_q == [] in
  t.done_q <- msg :: t.done_q;
  Mutex.unlock t.done_mu;
  (* One pipe write per batch: the reactor drains the whole queue at the
     next wakeup, so only the empty -> nonempty edge needs the syscall. *)
  if was_empty then wake t

let fail_ code msg = P.Fail { code; msg }

let reply_of_exn = function
  | Session.Aborted | Ode_trigger.Runtime.Tabort ->
      fail_ P.E_aborted "transaction aborted"
  | Session.Ode_error m -> fail_ P.E_bad_request m
  | Store.Store_error m -> fail_ P.E_bad_request m
  | Ode_objstore.Value.Type_error m -> fail_ P.E_bad_request m
  | Opp.Syntax_error { line; message } ->
      fail_ P.E_bad_request (Printf.sprintf "syntax error, line %d: %s" line message)
  | Store.Would_block _ -> fail_ P.E_conflict "lock conflict"
  | Store.Write_conflict _ -> fail_ P.E_conflict "write conflict"
  | Ode_storage.Lock_manager.Deadlock _ -> fail_ P.E_conflict "deadlock"
  | e -> fail_ P.E_internal (Printexc.to_string e)

(* ---------------- shard-side execution ---------------- *)

let run_op session txn = function
  | P.New_obj { cls; init } -> P.P_oid (Session.pnew session txn ~cls ~init ())
  | P.Delete_obj { obj } ->
      Session.pdelete session txn obj;
      P.P_unit
  | P.Get_field { obj; field } -> P.P_value (Session.get_field session txn obj field)
  | P.Set_field { obj; field; value } ->
      Session.set_field session txn obj field value;
      P.P_unit
  | P.Invoke { obj; meth; args } -> P.P_value (Session.invoke session txn obj meth args)
  | P.Post_event { obj; event; args; fast } ->
      let post () =
        Session.post_event ~args session txn obj event;
        P.P_bool true
      in
      if fast then begin
        (* Bloom-backed fast path: a definitely-absent (deleted/archived)
           object drops the post without touching a page or a lock. *)
        let objects, _ = Session.stores session in
        if objects.Store.maybe_present (Oid.to_rid obj) then post ()
        else P.P_bool false
      end
      else post ()
  | P.Activate { obj; trigger; args } ->
      P.P_id (Rid.to_int (Session.activate session txn obj ~trigger ~args))
  | P.Deactivate { tid } ->
      Session.deactivate session txn (Rid.of_int tid);
      P.P_unit
  | P.Hello _ | P.Ping | P.Define_class _ | P.Txn_begin _ | P.Txn_commit
  | P.Txn_abort | P.Snapshot_get _ | P.Stats | P.Shutdown ->
      assert false

let abort_quietly session txn =
  if Txn.is_active txn then try Session.abort session txn with _ -> ()

let no_txn = fail_ P.E_bad_request "no open transaction on stream"

(* Execute one request on its home shard. [slot] is the stream's txn slot
   (a throwaway for stream 0). The slot, not the reactor's view at
   dispatch time, decides: a request that rode behind in-flight ones of
   its stream sees what they left. Returns nothing; the reply and the
   updated txn state travel back through the completion lane. *)
let exec t conn ~sync ~stream ~shard slot req session =
  let reply =
    match req with
    | P.Txn_begin _ -> (
        match slot.sl_txn with
        | Some _ -> fail_ P.E_bad_request "transaction already open on stream"
        | None ->
            slot.sl_txn <- Some (Session.begin_txn session);
            P.Done P.P_unit)
    | P.Txn_commit -> (
        match slot.sl_txn with
        | None -> no_txn
        | Some txn -> (
            slot.sl_txn <- None;
            match Session.commit session txn with
            | () -> P.Done P.P_unit
            | exception e ->
                abort_quietly session txn;
                reply_of_exn e))
    | P.Txn_abort -> (
        match slot.sl_txn with
        | None -> no_txn
        | Some txn ->
            slot.sl_txn <- None;
            abort_quietly session txn;
            P.Done P.P_unit)
    | P.Snapshot_get { obj; field } -> (
        match
          Session.with_snapshot session (fun txn -> Session.get_field session txn obj field)
        with
        | v -> P.Done (P.P_value v)
        | exception e -> reply_of_exn e)
    | req -> (
        match slot.sl_txn with
        | Some txn -> (
            (* Interactive: run inside the stream's open transaction. Any
               failure poisons and rolls back the whole transaction —
               partial interactive state is never left behind. *)
            match run_op session txn req with
            | p -> P.Done p
            | exception e ->
                slot.sl_txn <- None;
                abort_quietly session txn;
                reply_of_exn e)
        | None -> (
            match Session.with_txn session (fun txn -> run_op session txn req) with
            | p -> P.Done p
            | exception e -> reply_of_exn e))
  in
  enqueue_reply conn ~sync reply;
  complete t (D_op { dconn = conn; dstream = stream; dtxn = Option.map (fun _ -> shard) slot.sl_txn })

(* Fan one request out to all K shards (define_class, stats); [finish]
   runs on the shard domain that completes last and must enqueue the
   reply + the final completion message itself. *)
let fan_out t ~(each : int -> Session.t -> unit) ~(finish : unit -> unit) =
  let mu = Mutex.create () in
  let left = ref t.k in
  for shard = 0 to t.k - 1 do
    Sharded.post_foreign t.fleet ~shard (fun session ->
        each shard session;
        Mutex.lock mu;
        decr left;
        let last = !left = 0 in
        Mutex.unlock mu;
        if last then finish () else complete t D_part)
  done

let run_define t (j : define_job) =
  t.define_busy <- true;
  Metrics.incr t.n_defines;
  t.inflight <- t.inflight + t.k;
  let mu = Mutex.create () in
  let names = ref [] in
  let err = ref None in
  fan_out t
    ~each:(fun shard session ->
      (* Deterministic replay: every shard loads the same source against an
         identical schema, so intern tables stay identical — the wire-time
         analogue of [Sharded.create]'s concurrent schema definition. *)
      match Opp.load ~on_missing:`Stub session ~bindings:t.bindings j.dj_source with
      | ns ->
          Mutex.lock mu;
          if shard = 0 then names := ns;
          Mutex.unlock mu
      | exception e ->
          Mutex.lock mu;
          (if !err = None then err := Some (reply_of_exn e));
          Mutex.unlock mu)
    ~finish:(fun () ->
      let reply = match !err with Some r -> r | None -> P.Done (P.P_names !names) in
      enqueue_reply j.dj_conn ~sync:j.dj_sync reply;
      complete t (D_define { dconn = j.dj_conn; dstream = j.dj_stream }))

(* The fleet's registries merged with the server's own [net.*] values;
   each shard snapshots its session on its own domain. *)
let run_stats t conn ~sync ~stream ~txn_before =
  t.inflight <- t.inflight + t.k;
  let mu = Mutex.create () in
  let snapshots = ref [ Metrics.snapshot t.metrics ] in
  fan_out t
    ~each:(fun _shard session ->
      let snapshot = Metrics.snapshot (Session.metrics session) in
      Mutex.lock mu;
      snapshots := snapshot :: !snapshots;
      Mutex.unlock mu)
    ~finish:(fun () ->
      enqueue_reply conn ~sync (P.Done (P.P_stats (Metrics.merge !snapshots)));
      complete t (D_op { dconn = conn; dstream = stream; dtxn = txn_before }))

(* ---------------- reactor: dispatch ---------------- *)

let throwaway_slot () = { sl_txn = None }

let get_stream conn id =
  match Hashtbl.find_opt conn.c_streams id with
  | Some st -> st
  | None ->
      let st =
        { st_id = id; st_queue = Queue.create (); st_inflight = 0; st_shard = -1;
          st_txn = None; st_slot = { sl_txn = None } }
      in
      Hashtbl.add conn.c_streams id st;
      st

let request_stop t deadline =
  Mutex.lock t.ctl_mu;
  if t.stop_req = None && t.result = None then t.stop_req <- Some deadline;
  Mutex.unlock t.ctl_mu

(* Roll back a stream's open transaction from the reactor (connection
   close or drain). Runs as one more foreign request on the pinned shard,
   so it serializes after any in-flight request of the same stream. *)
let synthetic_abort t (slot : slot) ~shard =
  t.inflight <- t.inflight + 1;
  t.dr_aborted_txns <- t.dr_aborted_txns + 1;
  Sharded.post_foreign t.fleet ~shard (fun session ->
      (match slot.sl_txn with
      | Some txn ->
          slot.sl_txn <- None;
          abort_quietly session txn
      | None -> ());
      complete t D_abort)

let dispatch_to t conn ~sync ~stream slot ~shard req =
  Metrics.incr t.n_dispatched;
  t.inflight <- t.inflight + 1;
  conn.c_inflight <- conn.c_inflight + 1;
  (* Buffered, not posted: the reactor flushes each shard's batch with
     one mailbox push before it blocks again (flush_posts). *)
  t.pending_posts.(shard) <- exec t conn ~sync ~stream ~shard slot req :: t.pending_posts.(shard)

(* Dispatch one request of a stream with nothing in flight. Either
   enqueues an immediate reply ([`Replied]) or hands it to a shard / the
   define lane ([`Dispatched shard], -1 for a fan-out). *)
let try_dispatch t conn ~sync ~stream (st : stream option) req =
  let reply r =
    enqueue_reply conn ~sync r;
    `Replied
  in
  let dispatch ~shard =
    let slot = match st with Some s -> s.st_slot | None -> throwaway_slot () in
    dispatch_to t conn ~sync ~stream slot ~shard req;
    `Dispatched shard
  in
  let txn_before = match st with Some s -> s.st_txn | None -> None in
  let obj_op obj =
    let shard = Sharded.shard_of t.fleet (Oid.to_int obj) in
    match txn_before with
    | Some pinned when pinned <> shard ->
        reply
          (fail_ P.E_cross_shard
             (Printf.sprintf
                "object %d lives on shard %d but the stream's transaction is pinned to shard %d"
                (Oid.to_int obj) shard pinned))
    | _ -> dispatch ~shard
  in
  match req with
  | P.Hello _ -> reply (fail_ P.E_bad_request "duplicate hello")
  | P.Ping -> reply (P.Done (P.P_pong { version = P.version }))
  | P.Shutdown ->
      request_stop t None;
      wake t;
      reply (P.Done P.P_unit)
  | P.Stats ->
      conn.c_inflight <- conn.c_inflight + 1;
      run_stats t conn ~sync ~stream ~txn_before;
      `Dispatched (-1)
  | P.Define_class { source } ->
      conn.c_inflight <- conn.c_inflight + 1;
      let job = { dj_conn = conn; dj_sync = sync; dj_stream = stream; dj_source = source } in
      if t.define_busy then Queue.add job t.defines else run_define t job;
      `Dispatched (-1)
  | P.Txn_begin { key } -> (
      match st with
      | None -> reply (fail_ P.E_bad_request "interactive transactions need a stream (> 0)")
      | Some _ when txn_before <> None ->
          reply (fail_ P.E_bad_request "transaction already open on stream")
      | Some _ -> dispatch ~shard:(Sharded.shard_of t.fleet key))
  | P.Txn_commit | P.Txn_abort -> (
      match txn_before with
      | None -> reply no_txn
      | Some shard -> dispatch ~shard)
  | P.New_obj _ -> (
      (* No oid yet: run on the pinned shard inside a txn, shard 0 outside. *)
      match txn_before with
      | Some shard -> dispatch ~shard
      | None -> dispatch ~shard:0)
  | P.Delete_obj { obj }
  | P.Get_field { obj; _ }
  | P.Set_field { obj; _ }
  | P.Invoke { obj; _ }
  | P.Post_event { obj; _ }
  | P.Activate { obj; _ }
  | P.Snapshot_get { obj; _ } ->
      obj_op obj
  | P.Deactivate { tid } ->
      (* A TriggerState rid is striped like an oid: same home shard. *)
      let shard = Sharded.shard_of t.fleet tid in
      (match txn_before with
      | Some pinned when pinned <> shard ->
          reply (fail_ P.E_cross_shard "activation lives outside the pinned shard")
      | _ -> dispatch ~shard)

(* Whether [req] goes to the shard of the stream's in-flight requests
   whatever they leave behind: the stream's transaction open there, or
   none. Such a request rides behind them now; the shard's FIFO lane
   keeps the stream's requests in submission order. *)
let rides t st req =
  let home key = Sharded.shard_of t.fleet key = st.st_shard in
  st.st_shard >= 0
  &&
  match req with
  | P.Delete_obj { obj } | P.Get_field { obj; _ } | P.Set_field { obj; _ } | P.Invoke { obj; _ }
  | P.Post_event { obj; _ } | P.Activate { obj; _ } | P.Snapshot_get { obj; _ } ->
      home (Oid.to_int obj)
  | P.Deactivate { tid = key } | P.Txn_begin { key } -> home key
  | P.Txn_commit | P.Txn_abort -> true
  | P.New_obj _ -> st.st_shard = 0
  | P.Hello _ | P.Ping | P.Stats | P.Define_class _ | P.Shutdown -> false

let rec pump_stream t conn st =
  match Queue.peek_opt st.st_queue with
  | Some { p_sync = sync; p_req = req } when st.st_inflight = 0 || rides t st req ->
      ignore (Queue.pop st.st_queue);
      conn.c_queued <- conn.c_queued - 1;
      if st.st_inflight > 0 then begin
        Metrics.incr t.n_pipelined;
        dispatch_to t conn ~sync ~stream:st.st_id st.st_slot ~shard:st.st_shard req;
        st.st_inflight <- st.st_inflight + 1
      end
      else (
        match try_dispatch t conn ~sync ~stream:st.st_id (Some st) req with
        | `Dispatched shard -> st.st_inflight <- 1; st.st_shard <- shard
        | `Replied -> ());
      pump_stream t conn st
  | _ -> ()

(* ---------------- reactor: frames & completions ---------------- *)

let draining t = match t.state with Draining _ -> true | Running -> false

let handle_frame t conn body =
  Metrics.incr t.n_frames_in;
  match P.decode_request body with
  | exception P.Frame_error msg ->
      (* The length prefix was sound, so the byte stream is still in sync:
         answer the bad frame and keep the connection. *)
      Metrics.incr t.n_frame_errors;
      let sync = Option.value (P.request_sync body) ~default:0 in
      enqueue_reply conn ~sync (fail_ P.E_malformed msg)
  | { rq_sync = sync; rq_stream = stream; rq_req = req } ->
      if not conn.c_hello then (
        match req with
        | P.Hello { magic; version } ->
            if magic <> P.magic then begin
              Metrics.incr t.n_hello_rejects;
              enqueue_reply conn ~sync (fail_ P.E_malformed "bad magic");
              conn.c_closing <- true
            end
            else if version <> P.version then begin
              Metrics.incr t.n_hello_rejects;
              enqueue_reply conn ~sync
                (fail_ P.E_version
                   (Printf.sprintf "server speaks protocol version %d, client sent %d"
                      P.version version));
              conn.c_closing <- true
            end
            else begin
              conn.c_hello <- true;
              enqueue_reply conn ~sync (P.Done (P.P_pong { version = P.version }))
            end
        | _ ->
            Metrics.incr t.n_hello_rejects;
            enqueue_reply conn ~sync (fail_ P.E_bad_request "hello required first");
            conn.c_closing <- true)
      else if stream = 0 then ignore (try_dispatch t conn ~sync ~stream None req)
      else begin
        let st = get_stream conn stream in
        Queue.add { p_sync = sync; p_req = req } st.st_queue;
        conn.c_queued <- conn.c_queued + 1;
        pump_stream t conn st
      end

(* Drop every queued request of [conn], answering each "not executed".
   A dead connection's outbox is gone, so nothing is encoded for it;
   [c_dead] is only set on the reactor, where this runs. *)
let drop_queued t conn =
  Hashtbl.iter
    (fun _ st ->
      let n = Queue.length st.st_queue in
      if n > 0 then begin
        t.dr_dropped_requests <- t.dr_dropped_requests + n;
        t.dr_dropped_streams <- t.dr_dropped_streams + 1;
        if not conn.c_dead then begin
          let not_executed = fail_ P.E_shutdown "not executed: server shutting down" in
          Queue.iter (fun p -> enqueue_reply conn ~sync:p.p_sync not_executed) st.st_queue
        end;
        Queue.clear st.st_queue
      end)
    conn.c_streams;
  conn.c_queued <- 0

let close_conn t conn =
  if not conn.c_dead then begin
    Mutex.lock conn.c_mu;
    conn.c_dead <- true;
    Buffer.clear conn.c_out;
    conn.c_out_frames <- 0;
    Mutex.unlock conn.c_mu;
    (try Unix.close conn.c_fd with _ -> ());
    Metrics.incr t.n_closed;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    drop_queued t conn;
    (* Idle streams with an open transaction roll back now; busy ones roll
       back when their last in-flight request completes (handle_done). *)
    Hashtbl.iter
      (fun _ st ->
        match st.st_txn with
        | Some shard when st.st_inflight = 0 ->
            st.st_txn <- None;
            synthetic_abort t st.st_slot ~shard
        | _ -> ())
      conn.c_streams
  end

let handle_done t msg =
  t.inflight <- t.inflight - 1;
  let stream_done conn stream txn =
    if draining t then t.dr_drained <- t.dr_drained + 1;
    conn.c_inflight <- conn.c_inflight - 1;
    match Hashtbl.find_opt conn.c_streams stream with
    | None -> ()
    | Some st ->
        st.st_inflight <- st.st_inflight - 1;
        st.st_txn <- txn;
        if st.st_inflight > 0 then ()
        else if conn.c_dead || draining t then (
          match txn with
          | Some shard ->
              st.st_txn <- None;
              synthetic_abort t st.st_slot ~shard
          | None -> ())
        else pump_stream t conn st
  in
  match msg with
  | D_op { dconn; dstream; dtxn } -> stream_done dconn dstream dtxn
  | D_define { dconn; dstream } ->
      t.define_busy <- false;
      stream_done dconn dstream
        (match Hashtbl.find_opt dconn.c_streams dstream with
        | Some st -> st.st_txn
        | None -> None);
      if (not (draining t)) && not (Queue.is_empty t.defines) then
        run_define t (Queue.pop t.defines)
  | D_part | D_abort -> ()

(* ---------------- reactor: sockets ---------------- *)

let outbox_bytes conn =
  Mutex.lock conn.c_mu;
  let n = Buffer.length conn.c_out in
  Mutex.unlock conn.c_mu;
  n

let flush_conn t conn =
  match conn.c_wpend with
  | Some (b, off) -> (
      match Unix.write conn.c_fd b off (Bytes.length b - off) with
      | n ->
          let off = off + n in
          conn.c_wpend <- (if off >= Bytes.length b then None else Some (b, off))
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> close_conn t conn)
  | None -> (
      Mutex.lock conn.c_mu;
      let data = Buffer.to_bytes conn.c_out in
      let frames = conn.c_out_frames in
      Buffer.clear conn.c_out;
      conn.c_out_frames <- 0;
      Mutex.unlock conn.c_mu;
      let len = Bytes.length data in
      if len > 0 then begin
        (* One coalesced write per wakeup: every reply that accumulated
           since the last flush ships in a single syscall. *)
        Metrics.incr t.n_flushes;
        Metrics.add t.n_replies frames;
        if frames > 1 then Metrics.add t.n_batched (frames - 1);
        match Unix.write conn.c_fd data 0 len with
        | n -> if n < len then conn.c_wpend <- Some (data, n)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            conn.c_wpend <- Some (data, 0)
        | exception Unix.Unix_error (_, _, _) -> close_conn t conn
      end
    )

let handle_read t conn =
  match Unix.read conn.c_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> close_conn t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t conn
  | n -> (
      P.Chunks.feed conn.c_chunks t.read_buf 0 n;
      try
        let rec drain () =
          match P.Chunks.next conn.c_chunks with
          | Some body ->
              handle_frame t conn body;
              if not conn.c_dead then drain ()
          | None -> ()
        in
        drain ()
      with P.Frame_error _ ->
        (* Bad length prefix: the byte stream is unrecoverable. *)
        Metrics.incr t.n_frame_errors;
        close_conn t conn)

let accept_conn t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, peer ->
      Unix.set_nonblock fd;
      (match peer with
      | Unix.ADDR_INET _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
      | Unix.ADDR_UNIX _ -> ());
      Metrics.incr t.n_accepted;
      t.next_conn <- t.next_conn + 1;
      let conn =
        {
          c_id = t.next_conn;
          c_fd = fd;
          c_chunks = P.Chunks.create ~max_frame:t.max_frame ();
          c_mu = Mutex.create ();
          c_out = Buffer.create 512;
          c_out_frames = 0;
          c_dead = false;
          c_hello = false;
          c_closing = false;
          c_inflight = 0;
          c_queued = 0;
          c_wpend = None;
          c_streams = Hashtbl.create 8;
        }
      in
      t.conns <- conn :: t.conns

(* ---------------- reactor: main loop ---------------- *)

(* Ship the cycle's buffered dispatches: one mailbox lock + one shard
   wakeup per shard per reactor cycle, however many requests arrived. *)
let flush_posts t =
  for shard = 0 to t.k - 1 do
    match t.pending_posts.(shard) with
    | [] -> ()
    | fs ->
        t.pending_posts.(shard) <- [];
        Sharded.post_foreign_batch t.fleet ~shard (List.rev fs)
  done

let drain_wake t =
  let n = Bytes.length t.wake_buf in
  let rec go () =
    match Unix.read t.wake_r t.wake_buf 0 n with
    | m when m = n -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception _ -> ()
  in
  go ()

let process_done t =
  Mutex.lock t.done_mu;
  let msgs = List.rev t.done_q in
  t.done_q <- [];
  Mutex.unlock t.done_mu;
  List.iter (handle_done t) msgs

let begin_drain t deadline_opt =
  if not (draining t) then begin
    let deadline = Option.value deadline_opt ~default:t.drain_deadline in
    t.state <- Draining (Unix.gettimeofday () +. deadline);
    t.dr_conns <- List.length t.conns;
    List.iter
      (fun (fd, addr) ->
        (try Unix.close fd with _ -> ());
        match addr with Unix_sock p -> ( try Unix.unlink p with _ -> ()) | Tcp _ -> ())
      t.listeners;
    (* Queued-but-undispatched work is dropped, each request answered
       E_shutdown; so are queued defines, which their streams already
       count as in flight. *)
    List.iter (fun c -> drop_queued t c) t.conns;
    Queue.iter
      (fun j ->
        t.dr_dropped_requests <- t.dr_dropped_requests + 1;
        enqueue_reply j.dj_conn ~sync:j.dj_sync (fail_ P.E_shutdown "server shutting down");
        j.dj_conn.c_inflight <- j.dj_conn.c_inflight - 1;
        match Hashtbl.find_opt j.dj_conn.c_streams j.dj_stream with
        | Some st -> st.st_inflight <- 0
        | None -> ())
      t.defines;
    Queue.clear t.defines;
    List.iter
      (fun c ->
        Hashtbl.iter
          (fun _ st ->
            match st.st_txn with
            | Some shard when st.st_inflight = 0 ->
                st.st_txn <- None;
                synthetic_abort t st.st_slot ~shard
            | _ -> ())
          c.c_streams)
      t.conns
  end

let publish t report =
  Mutex.lock t.ctl_mu;
  t.result <- Some report;
  Condition.broadcast t.ctl_cond;
  Mutex.unlock t.ctl_mu

let reactor t =
  let running = ref true in
  while !running do
    process_done t;
    flush_posts t;
    (Mutex.lock t.ctl_mu;
     let req = t.stop_req in
     Mutex.unlock t.ctl_mu;
     match req with Some d -> begin_drain t d | None -> ());
    (match t.state with
    | Draining deadline ->
        let now = Unix.gettimeofday () in
        let outboxes_empty =
          List.for_all (fun c -> c.c_wpend = None && outbox_bytes c = 0) t.conns
        in
        if (t.inflight = 0 && outboxes_empty) || now >= deadline then begin
          let hit = now >= deadline && t.inflight > 0 in
          List.iter (fun c -> close_conn t c) t.conns;
          publish t
            {
              r_conns = t.dr_conns;
              r_drained = t.dr_drained;
              r_dropped_requests = t.dr_dropped_requests;
              r_dropped_streams = t.dr_dropped_streams;
              r_aborted_txns = t.dr_aborted_txns;
              r_abandoned = t.inflight;
              r_deadline_hit = hit;
              r_failure = None;
            };
          running := false
        end
    | Running -> ());
    if !running then begin
      let reads = ref [ t.wake_r ] in
      if not (draining t) then begin
        List.iter (fun (fd, _) -> reads := fd :: !reads) t.listeners;
        List.iter
          (fun c ->
            let paused =
              c.c_closing
              || outbox_bytes c > t.outbox_hwm
              || c.c_inflight + c.c_queued >= t.max_conn_inflight
            in
            if not paused then reads := c.c_fd :: !reads)
          t.conns
      end;
      let writes =
        List.filter_map
          (fun c ->
            if c.c_wpend <> None || outbox_bytes c > 0 then Some c.c_fd else None)
          t.conns
      in
      let timeout = if draining t then 0.02 else 1.0 in
      flush_posts t;
      match Unix.select !reads writes [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | rs, ws, _ ->
          if List.memq t.wake_r rs then drain_wake t;
          List.iter
            (fun (fd, _) -> if List.memq fd rs then accept_conn t fd)
            t.listeners;
          let conns = t.conns in
          List.iter (fun c -> if List.memq c.c_fd rs then handle_read t c) conns;
          (* Ship this wakeup's dispatches before doing anything else so
             the shard domains start on them while the reactor flushes
             outboxes and recomputes its fd sets. *)
          flush_posts t;
          List.iter
            (fun c -> if (not c.c_dead) && List.memq c.c_fd ws then flush_conn t c)
            conns;
          (* A connection asked to close (handshake failure): drop it once
             its outbox has fully flushed. *)
          List.iter
            (fun c ->
              if c.c_closing && c.c_wpend = None && outbox_bytes c = 0 then
                close_conn t c)
            t.conns
    end
  done

let reactor_main t =
  (try reactor t
   with e ->
     List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) t.listeners;
     List.iter (fun c -> try close_conn t c with _ -> ()) t.conns;
     publish t
       {
         r_conns = List.length t.conns;
         r_drained = t.dr_drained;
         r_dropped_requests = t.dr_dropped_requests;
         r_dropped_streams = t.dr_dropped_streams;
         r_aborted_txns = t.dr_aborted_txns;
         r_abandoned = t.inflight;
         r_deadline_hit = false;
         r_failure = Some (Printexc.to_string e);
       });
  (* Keep the wake pipe open while shard domains may still be completing
     abandoned requests; fds die with the process. *)
  ()

(* ---------------- lifecycle ---------------- *)

let resolve_host h =
  if h = "" || h = "*" then Unix.inet_addr_any
  else
    try Unix.inet_addr_of_string h
    with _ -> (
      try (Unix.gethostbyname h).Unix.h_addr_list.(0)
      with _ -> Unix.inet_addr_loopback)

let bind_one addr =
  match addr with
  | Unix_sock path ->
      (try Unix.unlink path with _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      (fd, addr, addr)
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
      Unix.listen fd 128;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp (host, p)
        | _ -> addr
      in
      (fd, addr, bound)

let start ?(bindings = Opp.no_bindings) ?(max_frame = P.default_max_frame)
    ?(outbox_hwm = 1 lsl 20) ?(max_conn_inflight = 1024) ?(drain_deadline = 5.0)
    ~fleet ~listen () =
  if listen = [] then invalid_arg "Server.start: no listen addresses";
  if Sharded.mode fleet <> Sharded.Free then
    invalid_arg "Server.start: fleet must be in Free mode";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bound = List.map bind_one listen in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let m = Metrics.create () in
  let t =
    {
      fleet;
      k = Sharded.shard_count fleet;
      bindings;
      max_frame;
      outbox_hwm;
      max_conn_inflight;
      drain_deadline;
      listeners = List.map (fun (fd, addr, _) -> (fd, addr)) bound;
      bound = List.map (fun (_, _, b) -> b) bound;
      wake_r;
      wake_w;
      read_buf = Bytes.create 65536;
      wake_buf = Bytes.create 256;
      done_mu = Mutex.create ();
      done_q = [];
      pending_posts = Array.make (Sharded.shard_count fleet) [];
      conns = [];
      next_conn = 0;
      inflight = 0;
      state = Running;
      defines = Queue.create ();
      define_busy = false;
      dr_drained = 0;
      dr_dropped_requests = 0;
      dr_dropped_streams = 0;
      dr_aborted_txns = 0;
      dr_conns = 0;
      ctl_mu = Mutex.create ();
      ctl_cond = Condition.create ();
      stop_req = None;
      result = None;
      joined = false;
      domain = None;
      metrics = m;
      n_accepted = Metrics.counter m "net.accepted";
      n_closed = Metrics.counter m "net.closed";
      n_frames_in = Metrics.counter m "net.frames_in";
      n_frame_errors = Metrics.counter m "net.frame_errors";
      n_replies = Metrics.counter m "net.replies";
      n_flushes = Metrics.counter m "net.flushes";
      n_batched = Metrics.counter m "net.batched_frames";
      n_dispatched = Metrics.counter m "net.dispatched";
      n_pipelined = Metrics.counter m "net.pipelined";
      n_defines = Metrics.counter m "net.defines";
      n_hello_rejects = Metrics.counter m "net.hello_rejects";
    }
  in
  Metrics.gauge m "net.conns" (fun () -> List.length t.conns);
  Metrics.gauge m "net.shards" (fun () -> t.k);
  t.domain <- Some (Domain.spawn (fun () -> reactor_main t));
  t

let addrs t = t.bound

let wait t =
  Mutex.lock t.ctl_mu;
  while t.result = None do
    Condition.wait t.ctl_cond t.ctl_mu
  done;
  let r = Option.get t.result in
  let join = not t.joined in
  t.joined <- true;
  Mutex.unlock t.ctl_mu;
  if join then Option.iter Domain.join t.domain;
  r

let stop ?deadline t =
  request_stop t deadline;
  wake t;
  wait t

let counters t = Metrics.values t.metrics
