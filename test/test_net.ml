(* The network layer: Proto codec round-trips, malformed frames, the
   handshake, the server's stream semantics (ordering, pipelining,
   interactive transactions, cross-shard fencing), multi-client
   equivalence against an in-process reference, and graceful shutdown
   under load. Everything runs over real sockets against a [Free]-mode
   sharded fleet. *)

module P = Ode_net.Proto
module Server = Ode_net.Server
module Client = Ode_net.Client
module Sharded = Ode_parallel.Sharded
module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid

let shards () =
  match Sys.getenv_opt "ODE_SHARDS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some k when k >= 1 -> k | _ -> 4)
  | None -> 4

let sock_n = ref 0

let fresh_addr () =
  incr sock_n;
  Server.Unix_sock
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "ode-net-%d-%d.sock" (Unix.getpid ()) !sock_n))

let net_keys =
  [
    "net.accepted"; "net.batched_frames"; "net.closed"; "net.conns"; "net.defines";
    "net.dispatched"; "net.flushes"; "net.frame_errors"; "net.frames_in"; "net.hello_rejects";
    "net.pipelined"; "net.replies"; "net.shards";
  ]

let credit_fleet k =
  Sharded.create ~shards:k ~mode:Sharded.Free
    ~schema:(fun ~shard:_ env -> Credit_card.define_all env)
    ()

(* Run [f client server fleet] against a fresh fleet + server, tearing
   both down afterwards (server first — it posts into the mailboxes). *)
let with_server ?(k = shards ()) f =
  let fleet = credit_fleet k in
  let server = Server.start ~fleet ~listen:[ fresh_addr () ] () in
  let addr = List.hd (Server.addrs server) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop server);
      Sharded.shutdown fleet)
    (fun () -> f addr server fleet)

(* ------------------------------------------------------------------ *)
(* Proto: seeded round-trip property over every frame type. *)

let gen_value prng depth =
  match Random.State.int prng (if depth > 0 then 7 else 6) with
  | 0 -> Value.Null
  | 1 -> Value.Bool (Random.State.bool prng)
  | 2 -> Value.Int (Random.State.int prng 1_000_000 - 500_000)
  | 3 -> Value.Float (Random.State.float prng 1e6)
  | 4 -> Value.Str (String.init (Random.State.int prng 12) (fun _ -> Char.chr (32 + Random.State.int prng 90)))
  | 5 -> Value.Oid (Oid.of_int (Random.State.int prng 10_000))
  | _ ->
      Value.List
        (List.init (Random.State.int prng 4) (fun _ ->
             Value.Null))

let gen_string prng = String.init (1 + Random.State.int prng 16) (fun _ -> Char.chr (97 + Random.State.int prng 26))

let gen_request prng =
  let obj = Oid.of_int (Random.State.int prng 100_000) in
  let args = List.init (Random.State.int prng 3) (fun _ -> gen_value prng 1) in
  match Random.State.int prng 17 with
  | 0 -> P.Hello { magic = P.magic; version = Random.State.int prng 10 }
  | 1 -> P.Ping
  | 2 -> P.Define_class { source = gen_string prng }
  | 3 ->
      P.New_obj
        { cls = gen_string prng;
          init = List.init (Random.State.int prng 3) (fun _ -> (gen_string prng, gen_value prng 1)) }
  | 4 -> P.Delete_obj { obj }
  | 5 -> P.Get_field { obj; field = gen_string prng }
  | 6 -> P.Set_field { obj; field = gen_string prng; value = gen_value prng 1 }
  | 7 -> P.Invoke { obj; meth = gen_string prng; args }
  | 8 -> P.Post_event { obj; event = gen_string prng; args; fast = Random.State.bool prng }
  | 9 -> P.Activate { obj; trigger = gen_string prng; args }
  | 10 -> P.Deactivate { tid = Random.State.int prng 100_000 }
  | 11 -> P.Txn_begin { key = Random.State.int prng 100_000 }
  | 12 -> P.Txn_commit
  | 13 -> P.Txn_abort
  | 14 -> P.Snapshot_get { obj; field = gen_string prng }
  | 15 -> P.Stats
  | _ -> P.Shutdown

let gen_reply prng =
  if Random.State.bool prng then
    P.Done
      (match Random.State.int prng 8 with
      | 0 -> P.P_unit
      | 1 -> P.P_pong { version = Random.State.int prng 10 }
      | 2 -> P.P_oid (Oid.of_int (Random.State.int prng 100_000))
      | 3 -> P.P_value (gen_value prng 1)
      | 4 -> P.P_bool (Random.State.bool prng)
      | 5 -> P.P_id (Random.State.int prng 100_000)
      | 6 -> P.P_names (List.init (Random.State.int prng 4) (fun _ -> gen_string prng))
      | _ ->
          P.P_stats
            (List.init (Random.State.int prng 5) (fun _ ->
                 (gen_string prng, Random.State.int prng 1_000_000))))
  else
    let code =
      List.nth
        [ P.E_version; P.E_malformed; P.E_bad_request; P.E_aborted; P.E_conflict;
          P.E_cross_shard; P.E_shutdown; P.E_internal ]
        (Random.State.int prng 8)
    in
    P.Fail { code; msg = gen_string prng }

let proto_roundtrip () =
  Seeds.with_seed "net.proto_roundtrip" @@ fun seed ->
  let prng = Random.State.make [| seed; 0x0DE7 |] in
  (* Encode a run of random frames, feed the byte stream to a chunker in
     random slices, and require bit-exact identity after decode. *)
  let n = 300 in
  let reqs = List.init n (fun i -> (i, Random.State.int prng 1000, gen_request prng)) in
  let reps = List.init n (fun i -> (i + 7, gen_reply prng)) in
  let stream_bytes =
    Buffer.create 4096
  in
  List.iter
    (fun (sync, stream, req) ->
      Buffer.add_bytes stream_bytes (P.encode_request ~sync ~stream req))
    reqs;
  let all = Buffer.to_bytes stream_bytes in
  let chunks = P.Chunks.create () in
  let pos = ref 0 in
  let decoded = ref [] in
  while !pos < Bytes.length all do
    let len = min (1 + Random.State.int prng 23) (Bytes.length all - !pos) in
    P.Chunks.feed chunks all !pos len;
    pos := !pos + len;
    let rec drain () =
      match P.Chunks.next chunks with
      | Some body ->
          let d = P.decode_request body in
          decoded := (d.P.rq_sync, d.P.rq_stream, d.P.rq_req) :: !decoded;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  Alcotest.(check bool) "request round-trip" true (List.rev !decoded = reqs);
  List.iter
    (fun (sync, reply) ->
      let framed = P.encode_reply ~sync reply in
      let body = Bytes.sub framed 4 (Bytes.length framed - 4) in
      Alcotest.(check bool) "reply round-trip" true (P.decode_reply body = (sync, reply)))
    reps

(* ------------------------------------------------------------------ *)
(* Malformed frames must be rejected without killing the connection. *)

(* A raw frame: 4-byte big-endian length + body. *)
let raw_frame body =
  let n = Bytes.length body in
  let out = Bytes.create (4 + n) in
  Bytes.set out 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set out 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set out 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set out 3 (Char.chr (n land 0xff));
  Bytes.blit body 0 out 4 n;
  out

let send_raw fd bytes = ignore (Unix.write fd bytes 0 (Bytes.length bytes))

let read_reply fd chunks =
  let buf = Bytes.create 4096 in
  let rec go () =
    match P.Chunks.next chunks with
    | Some body -> P.decode_reply body
    | None ->
        let n = Unix.read fd buf 0 4096 in
        if n = 0 then failwith "server closed connection";
        P.Chunks.feed chunks buf 0 n;
        go ()
  in
  go ()

let connect_raw addr =
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let garbage_frames_survive () =
  with_server @@ fun addr _server _fleet ->
  let fd = connect_raw addr in
  let chunks = P.Chunks.create () in
  send_raw fd (P.encode_request ~sync:1 ~stream:0 (P.Hello { magic = P.magic; version = P.version }));
  (match read_reply fd chunks with
  | 1, P.Done (P.P_pong _) -> ()
  | _ -> Alcotest.fail "handshake failed");
  (* Garbage body under a sound length prefix: sync survives, kind is junk. *)
  let w = Ode_util.Binc.writer () in
  Ode_util.Binc.write_uvarint w 42;
  Ode_util.Binc.write_uvarint w 0;
  Ode_util.Binc.write_uvarint w 99;
  send_raw fd (raw_frame (Ode_util.Binc.contents w));
  (match read_reply fd chunks with
  | 42, P.Fail { code = P.E_malformed; _ } -> ()
  | _ -> Alcotest.fail "garbage frame not rejected under its sync");
  (* Truncated body: a real request cut short mid-fields. *)
  let good = P.encode_request ~sync:43 ~stream:0 (P.Get_field { obj = Oid.of_int 1; field = "currBal" }) in
  let body = Bytes.sub good 4 (Bytes.length good - 4) in
  let cut = Bytes.sub body 0 (Bytes.length body - 3) in
  send_raw fd (raw_frame cut);
  (match read_reply fd chunks with
  | 43, P.Fail { code = P.E_malformed; _ } -> ()
  | _ -> Alcotest.fail "truncated frame not rejected under its sync");
  (* The connection must still work. *)
  send_raw fd (P.encode_request ~sync:44 ~stream:0 P.Ping);
  (match read_reply fd chunks with
  | 44, P.Done (P.P_pong _) -> ()
  | _ -> Alcotest.fail "connection did not survive the bad frames");
  Unix.close fd

let version_mismatch () =
  with_server @@ fun addr _server _fleet ->
  let fd = connect_raw addr in
  let chunks = P.Chunks.create () in
  send_raw fd
    (P.encode_request ~sync:1 ~stream:0 (P.Hello { magic = P.magic; version = P.version + 1 }));
  (match read_reply fd chunks with
  | 1, P.Fail { code = P.E_version; _ } -> ()
  | _ -> Alcotest.fail "version mismatch not rejected");
  (* The server closes after a failed handshake. *)
  let buf = Bytes.create 64 in
  Alcotest.(check int) "connection closed" 0 (Unix.read fd buf 0 64);
  Unix.close fd;
  (* And [Client.connect] surfaces the rejection as [Remote E_version]
     when the versions genuinely disagree — simulated by a raw hello
     above; the library client always speaks [P.version], so here we just
     confirm a fresh handshake still succeeds. *)
  let c = Client.connect addr in
  Client.ping c;
  Client.close c

(* ------------------------------------------------------------------ *)
(* API flows: definitions, objects, triggers, transactions, snapshots. *)

let api_flows () =
  with_server @@ fun addr _server fleet ->
  let k = Sharded.shard_count fleet in
  let c = Client.connect addr in
  (* Define a class over the wire, then use it. *)
  let names = Client.define_class c "persistent class Thing { float v = 0.0; event bump; };" in
  Alcotest.(check (list string)) "define over wire" [ "Thing" ] names;
  Client.txn_begin c ~stream:1 ~key:0;
  let thing = Client.new_obj c ~stream:1 ~cls:"Thing" [ ("v", Value.Float 1.5) ] in
  Client.set_field c ~stream:1 thing "v" (Value.Float 2.5);
  Client.txn_commit c ~stream:1;
  Alcotest.(check bool) "committed write visible" true
    (Client.get_field c thing "v" = Value.Float 2.5);
  Alcotest.(check bool) "snapshot read" true
    (Client.snapshot_get c thing "v" = Value.Float 2.5);
  (* Abort rolls back. *)
  Client.txn_begin c ~stream:1 ~key:0;
  Client.set_field c ~stream:1 thing "v" (Value.Float 9.0);
  Client.txn_abort c ~stream:1;
  Alcotest.(check bool) "aborted write invisible" true
    (Client.get_field c thing "v" = Value.Float 2.5);
  (* Credit-card flow with a trigger round trip. *)
  Client.txn_begin c ~stream:1 ~key:0;
  let customer = Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str "net") ] in
  let merchant = Client.new_obj c ~stream:1 ~cls:"Merchant" [ ("name", Value.Str "shop") ] in
  let card =
    Client.new_obj c ~stream:1 ~cls:"CredCard"
      [ ("issuedTo", Value.Oid customer); ("credLim", Value.Float 100.0) ]
  in
  let tid = Client.activate c ~stream:1 card ~trigger:"DenyCredit" ~args:[] in
  Client.txn_commit c ~stream:1;
  ignore (Client.invoke c card "Buy" [ Value.Oid merchant; Value.Float 50.0 ]);
  (* Over the limit: DenyCredit tabort surfaces as E_aborted. *)
  (match Client.call c (P.Invoke { obj = card; meth = "Buy"; args = [ Value.Oid merchant; Value.Float 500.0 ] }) with
  | P.Fail { code = P.E_aborted; _ } -> ()
  | _ -> Alcotest.fail "DenyCredit did not abort over the wire");
  Alcotest.(check bool) "denied buy rolled back" true
    (Client.get_field c card "currBal" = Value.Float 50.0);
  Client.deactivate c tid;
  ignore (Client.invoke c card "Buy" [ Value.Oid merchant; Value.Float 500.0 ]);
  Alcotest.(check bool) "deactivated trigger no longer fires" true
    (Client.get_field c card "currBal" = Value.Float 550.0);
  (* Fast-path post to a deleted object is dropped by the bloom. *)
  Alcotest.(check bool) "post to live object delivered" true
    (Client.post_event c ~fast:true card "BigBuy");
  (* Stream-0 transactions are rejected; cross-shard inside a txn is fenced. *)
  (match Client.call c (P.Txn_begin { key = 0 }) with
  | P.Fail { code = P.E_bad_request; _ } -> ()
  | _ -> Alcotest.fail "txn on stream 0 accepted");
  if k > 1 then begin
    Client.txn_begin c ~stream:2 ~key:0;
    let foreign_key = Oid.of_int 1 in
    (match
       Client.call c ~stream:2 (P.Get_field { obj = foreign_key; field = "v" })
     with
    | P.Fail { code = P.E_cross_shard; _ } -> ()
    | _ -> Alcotest.fail "cross-shard op inside txn accepted");
    (* The fence error poisons nothing: the txn is still usable. *)
    Client.set_field c ~stream:2 thing "v" (Value.Float 3.5);
    Client.txn_commit c ~stream:2
  end;
  (* Stats fan in from every shard plus the server's own counters. A
     commit on every shard gives each its own peaks to merge. *)
  for key = 0 to k - 1 do
    Client.txn_begin c ~stream:3 ~key;
    let t = Client.new_obj c ~stream:3 ~cls:"Thing" [ ("v", Value.Float 0.0) ] in
    Client.set_field c ~stream:3 t "v" (Value.Float 1.0);
    Client.txn_commit c ~stream:3
  done;
  let stats = Client.stats c in
  Alcotest.(check bool) "stats carries net.shards" true
    (List.assoc_opt "net.shards" stats = Some k);
  Alcotest.(check (list string)) "stats keys: the session's plus fleet.* and net.*"
    (List.sort String.compare
       (Test_counters.session_keys `Mem @ Test_counters.fleet_keys @ net_keys))
    (List.map fst stats);
  (* The fleet is idle once the reply is in: read each shard directly. *)
  let per_shard key =
    List.init k (fun i -> List.assoc key (Session.counters (Sharded.session fleet i)))
  in
  Alcotest.(check int) "stats sums shard inserts"
    (List.fold_left ( + ) 0 (per_shard "objects.inserts"))
    (List.assoc "objects.inserts" stats);
  List.iter
    (fun key ->
      Alcotest.(check int) (key ^ " is the largest shard's")
        (List.fold_left max 0 (per_shard key))
        (List.assoc key stats))
    [ "objects.max_batch_size"; "objects.mvcc.max_chain_len"; "triggers.max_batch_size" ];
  Client.close c

(* ------------------------------------------------------------------ *)
(* N concurrent clients vs the same schedule applied in-process. *)

type card_op = Buy of float | Pay of float

let gen_ops prng n =
  List.init n (fun _ ->
      if Random.State.int prng 4 = 0 then Pay (float_of_int (1 + Random.State.int prng 40))
      else Buy (float_of_int (1 + Random.State.int prng 60)))

let concurrent_equivalence () =
  Seeds.with_seed "net.equivalence" @@ fun seed ->
  with_server @@ fun addr _server _fleet ->
  let n_clients = 6 and ops_per_client = 40 in
  let plans =
    Array.init n_clients (fun i ->
        gen_ops (Random.State.make [| seed; 0xC11E; i |]) ops_per_client)
  in
  (* Wire run: each client owns one card (pinned to its own shard via the
     txn key), applies its plan as single-op transactions on stream 0,
     recording which ops aborted. *)
  let results = Array.make n_clients (0.0, 0.0, [])
  and aborted = Array.make n_clients [] in
  let worker i =
    let c = Client.connect addr in
    Client.txn_begin c ~stream:1 ~key:i;
    let customer = Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str (string_of_int i)) ] in
    let merchant = Client.new_obj c ~stream:1 ~cls:"Merchant" [ ("name", Value.Str "m") ] in
    let card =
      Client.new_obj c ~stream:1 ~cls:"CredCard"
        [ ("issuedTo", Value.Oid customer); ("credLim", Value.Float 500.0) ]
    in
    ignore (Client.activate c ~stream:1 card ~trigger:"DenyCredit" ~args:[]);
    ignore (Client.activate c ~stream:1 card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 250.0 ]);
    Client.txn_commit c ~stream:1;
    List.iteri
      (fun j op ->
        let req =
          match op with
          | Buy a -> P.Invoke { obj = card; meth = "Buy"; args = [ Value.Oid merchant; Value.Float a ] }
          | Pay a -> P.Invoke { obj = card; meth = "PayBill"; args = [ Value.Float a ] }
        in
        match Client.call c req with
        | P.Done _ -> ()
        | P.Fail { code = P.E_aborted; _ } -> aborted.(i) <- j :: aborted.(i)
        | P.Fail { msg; _ } -> failwith ("unexpected error: " ^ msg))
      plans.(i);
    let bal = match Client.get_field c card "currBal" with Value.Float f -> f | _ -> nan in
    let lim = match Client.get_field c card "credLim" with Value.Float f -> f | _ -> nan in
    let marks =
      match Client.get_field c card "black_marks" with
      | Value.List l -> List.map Value.to_str l
      | _ -> []
    in
    results.(i) <- (bal, lim, marks);
    Client.close c
  in
  let threads = Array.init n_clients (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  (* Reference run: same plans, sequentially, in one in-process session. *)
  let env = Session.create () in
  Credit_card.define_all env;
  Array.iteri
    (fun i plan ->
      let card, merchant =
        Session.with_txn env (fun txn ->
            let customer = Credit_card.new_customer env txn ~name:(string_of_int i) in
            let merchant = Credit_card.new_merchant env txn ~name:"m" in
            let card = Credit_card.new_card env txn ~customer ~limit:500.0 () in
            ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
            ignore
              (Session.activate env txn card ~trigger:"AutoRaiseLimit"
                 ~args:[ Value.Float 250.0 ]);
            (card, merchant))
      in
      let ref_aborted = ref [] in
      List.iteri
        (fun j op ->
          match
            Session.with_txn env (fun txn ->
                match op with
                | Buy a -> Credit_card.buy env txn card ~merchant ~amount:a
                | Pay a -> Credit_card.pay_bill env txn card ~amount:a)
          with
          | () -> ()
          | exception Session.Aborted -> ref_aborted := j :: !ref_aborted)
        plan;
      let bal, lim, marks =
        Session.with_txn env (fun txn ->
            ( Credit_card.balance env txn card,
              Credit_card.limit env txn card,
              Credit_card.black_marks env txn card ))
      in
      let wbal, wlim, wmarks = results.(i) in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "client %d balance" i) bal wbal;
      Alcotest.(check (float 1e-6)) (Printf.sprintf "client %d limit" i) lim wlim;
      Alcotest.(check (list string)) (Printf.sprintf "client %d marks" i) marks wmarks;
      Alcotest.(check (list int))
        (Printf.sprintf "client %d abort pattern" i)
        !ref_aborted aborted.(i))
    plans

(* ------------------------------------------------------------------ *)
(* A slow stream must not delay a fast stream on the same connection. *)

let slow_stream_no_hol () =
  with_server @@ fun addr _server _fleet ->
  let c = Client.connect addr in
  Client.txn_begin c ~stream:1 ~key:0;
  let slow_obj = Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str "slow") ] in
  Client.txn_commit c ~stream:1;
  let fast_objs =
    List.init 4 (fun i ->
        Client.txn_begin c ~stream:1 ~key:(i + 1);
        let o =
          Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str "fast") ]
        in
        Client.txn_commit c ~stream:1;
        o)
  in
  (* Open a transaction on stream 1 and leave it holding locks on its
     object — the "slow" client-side think time. *)
  Client.txn_begin c ~stream:1 ~key:0;
  Client.set_field c ~stream:1 slow_obj "name" (Value.Str "busy");
  (* While it sits open, a burst of stream-0 requests to other objects
     must complete. If streams head-of-line-blocked, these awaits would
     deadlock (the txn above never commits until after them). *)
  let t0 = Unix.gettimeofday () in
  let syncs =
    List.concat_map
      (fun o -> List.init 25 (fun _ -> Client.send c (P.Get_field { obj = o; field = "name" })))
      fast_objs
  in
  List.iter
    (fun s ->
      match Client.await c s with
      | P.Done (P.P_value (Value.Str "fast")) -> ()
      | _ -> Alcotest.fail "fast read failed while slow txn open")
    syncs;
  let fast_elapsed = Unix.gettimeofday () -. t0 in
  (* Only now does the slow transaction move again. *)
  Client.set_field c ~stream:1 slow_obj "name" (Value.Str "done");
  Client.txn_commit c ~stream:1;
  Alcotest.(check bool)
    (Printf.sprintf "100 fast reads finished under an open txn in %.3fs" fast_elapsed)
    true (fast_elapsed < 5.0);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Graceful shutdown under load loses zero acknowledged commits. *)

let shutdown_no_loss () =
  let fleet =
    Sharded.create ~shards:(shards ()) ~mode:Sharded.Free
      ~schema:(fun ~shard:_ env -> Credit_card.define_all env)
      ()
  in
  let server = Server.start ~fleet ~listen:[ fresh_addr () ] () in
  let addr = List.hd (Server.addrs server) in
  let n_clients = 4 in
  let acked = Array.make n_clients 0 and sent = Array.make n_clients 0 in
  let cards = Array.make n_clients None in
  let worker i =
    try
      let c = Client.connect addr in
      Client.txn_begin c ~stream:1 ~key:i;
      let customer = Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str "x") ] in
      let merchant = Client.new_obj c ~stream:1 ~cls:"Merchant" [ ("name", Value.Str "m") ] in
      let card =
        Client.new_obj c ~stream:1 ~cls:"CredCard"
          [ ("issuedTo", Value.Oid customer); ("credLim", Value.Float 1e9) ]
      in
      Client.txn_commit c ~stream:1;
      cards.(i) <- Some card;
      (try
         for _ = 1 to 5_000 do
           sent.(i) <- sent.(i) + 1;
           match
             Client.call c
               (P.Invoke { obj = card; meth = "Buy"; args = [ Value.Oid merchant; Value.Float 1.0 ] })
           with
           | P.Done _ -> acked.(i) <- acked.(i) + 1
           | P.Fail { code = P.E_shutdown; _ } -> raise Exit
           | P.Fail { msg; _ } -> failwith msg
         done
       with Exit | Client.Net_error _ -> ());
      Client.close c
    with Client.Net_error _ -> ()
  in
  let threads = Array.init n_clients (fun i -> Thread.create worker i) in
  Thread.delay 0.15;
  let report = Server.stop server in
  Array.iter Thread.join threads;
  Alcotest.(check bool) "reactor healthy" true (report.Server.r_failure = None);
  (* Every acknowledged Buy must be durable in the fleet: each buy added
     1.0 to some card, so the committed total is >= the acked total (a
     commit whose reply never flushed is allowed, the reverse is not). *)
  Sharded.sync fleet;
  let committed = ref 0.0 in
  Array.iter
    (fun card ->
      match card with
      | None -> ()
      | Some card ->
          Sharded.with_shard fleet ~key:(Oid.to_int card) (fun env ->
              Session.with_txn env (fun txn ->
                  match Session.get_field env txn card "currBal" with
                  | Value.Float f -> committed := !committed +. f
                  | _ -> ())))
    cards;
  let total_acked = Array.fold_left ( + ) 0 acked in
  let total_sent = Array.fold_left ( + ) 0 sent in
  Sharded.shutdown fleet;
  Alcotest.(check bool)
    (Printf.sprintf "acked %d <= committed %.0f <= sent %d" total_acked !committed total_sent)
    true
    (!committed >= float_of_int total_acked && !committed <= float_of_int total_sent);
  Alcotest.(check bool) "some traffic actually flowed" true (total_acked > 0)

(* ------------------------------------------------------------------ *)
(* Pipelined stream requests ride behind their in-flight ones to the
   same shard. Whatever rides must answer exactly as it would have one
   request at a time. *)

(* Run [worker i] for each [i < n] on its own thread and wait for them,
   but at most [secs]: then [stop] runs anyway, so a lost reply ends its
   blocked [await] with [Net_error] instead of hanging the suite. *)
let run_workers ?(secs = 60.0) ~stop n worker =
  let finished = Atomic.make 0 in
  let threads =
    List.init n (fun i ->
        Thread.create (fun () -> Fun.protect ~finally:(fun () -> Atomic.incr finished) (fun () -> worker i)) ())
  in
  let deadline = Unix.gettimeofday () +. secs in
  while Atomic.get finished < n && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let timed_out = Atomic.get finished < n in
  stop ();
  List.iter Thread.join threads;
  timed_out

let credit_card c ~stream ~key ~limit =
  Client.txn_begin c ~stream ~key;
  let customer = Client.new_obj c ~stream ~cls:"Customer" [ ("name", Value.Str "c") ] in
  let card =
    Client.new_obj c ~stream ~cls:"CredCard"
      [ ("issuedTo", Value.Oid customer); ("credLim", Value.Float limit) ]
  in
  (card, fun () -> Client.txn_commit c ~stream)

let buy card amount = P.Invoke { obj = card; meth = "Buy"; args = [ Value.Null; Value.Float amount ] }
let pay card amount = P.Invoke { obj = card; meth = "PayBill"; args = [ Value.Float amount ] }

let render_reply fleet = function
  | P.Done (P.P_oid o) -> Printf.sprintf "oid on shard %d" (Sharded.shard_of fleet (Oid.to_int o))
  | P.Done (P.P_stats kvs) -> "stats " ^ String.concat "," (List.map fst kvs)
  | P.Done P.P_unit -> "unit"
  | P.Done (P.P_pong { version }) -> Printf.sprintf "pong %d" version
  | P.Done (P.P_value v) -> "value " ^ Value.to_string v
  | P.Done (P.P_bool b) -> string_of_bool b
  | P.Done (P.P_id i) -> Printf.sprintf "id %d" i
  | P.Done (P.P_names ns) -> "names " ^ String.concat "," ns
  | P.Fail { code; msg } -> Printf.sprintf "fail %s: %s" (P.err_code_name code) msg

(* Two servers in one process, each driven by pipelining clients at the
   same time: every reply must be the one its request asked for. Each
   reactor needs a read buffer of its own, or one server parses bytes
   the other read. *)
let two_servers_one_process () =
  let k = shards () in
  let sides =
    Array.init 2 (fun _ ->
        let fleet = credit_fleet k in
        (fleet, Server.start ~fleet ~listen:[ fresh_addr () ] ()))
  in
  let clients_per_side = 2 and rounds = 40 and streams = 4 in
  let errors = Array.make (2 * clients_per_side) None in
  let worker i =
    let side = i mod 2 in
    try
      let c = Client.connect (List.hd (Server.addrs (snd sides.(side)))) in
      let objs =
        Array.init streams (fun s ->
            Client.txn_begin c ~stream:1 ~key:s;
            let o = Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str "") ] in
            Client.txn_commit c ~stream:1;
            o)
      in
      let expect what want got =
        if got <> want then
          failwith (Printf.sprintf "%s: got %s" what (render_reply (fst sides.(side)) got))
      in
      for r = 1 to rounds do
        let payload s =
          Printf.sprintf "%d/%d/%d/%s" i s r (String.make 4000 (Char.chr (65 + ((i + s + r) mod 26))))
        in
        let syncs =
          Array.mapi
            (fun s obj ->
              Array.map (Client.send c ~stream:(s + 1))
                [|
                  P.Txn_begin { key = Oid.to_int obj };
                  P.Set_field { obj; field = "name"; value = Value.Str (payload s) };
                  P.Get_field { obj; field = "name" };
                  P.Txn_commit;
                |])
            objs
        in
        Array.iteri
          (fun s ss ->
            let await j = Client.await c ss.(j) in
            expect "begin" (P.Done P.P_unit) (await 0);
            expect "set" (P.Done P.P_unit) (await 1);
            expect "get in txn" (P.Done (P.P_value (Value.Str (payload s)))) (await 2);
            expect "commit" (P.Done P.P_unit) (await 3))
          syncs;
        let reads = Array.map (fun obj -> Client.send c (P.Get_field { obj; field = "name" })) objs in
        Array.iteri
          (fun s sync -> expect "stream-0 get" (P.Done (P.P_value (Value.Str (payload s)))) (Client.await c sync))
          reads
      done;
      Client.close c
    with e -> errors.(i) <- Some (Printexc.to_string e)
  in
  let timed_out =
    run_workers ~stop:(fun () -> Array.iter (fun (_, server) -> ignore (Server.stop server)) sides)
      (2 * clients_per_side) worker
  in
  Array.iter (fun (fleet, _) -> Sharded.shutdown fleet) sides;
  Alcotest.(check bool) "no client timed out" false timed_out;
  Array.iteri
    (fun i e -> Alcotest.(check (option string)) (Printf.sprintf "client %d" i) None e)
    errors

(* Differential: the same stream scripts, sent all at once and then one
   request at a time, on fresh identical fleets, give the same replies
   and the same final cards. Streams touch disjoint cards and only read
   the shared objects, so the order between streams does not matter. *)

(* One stream's script: a fixed prefix with every case the ride-along
   rule must get right, then a seeded random tail. [card] is the
   stream's own card; [foreign] is a read-only object on the next shard
   (the same shard when K = 1); keys 0 and 1 pin to shard 0 and, for
   K > 1, to shard 1. *)
let gen_script prng ~card ~foreign =
  let own = Oid.to_int card in
  let bal = P.Get_field { obj = card; field = "currBal" } in
  let foreign_read = P.Get_field { obj = foreign; field = "name" } in
  let new_obj = P.New_obj { cls = "Customer"; init = [ ("name", Value.Str "n") ] } in
  let snap = P.Snapshot_get { obj = card; field = "currBal" } in
  let prefix =
    [
      (* A DenyCredit tabort in mid-transaction, then Buy and commit. *)
      P.Txn_begin { key = own }; buy card 10.0; buy card 1e6; buy card 5.0; bal; P.Txn_commit;
      (* Begin while open, a cross-shard read, Snapshot_get/Ping/Stats
         mid-transaction, then commit and abort with none open. *)
      P.Txn_begin { key = own }; P.Txn_begin { key = own }; foreign_read; buy card 1.0; snap;
      P.Ping; P.Stats; P.Txn_commit; P.Txn_commit; P.Txn_abort;
      (* New_obj pinned to shard 0, pinned to shard 1, and outside. *)
      P.Txn_begin { key = 0 }; new_obj; bal; P.Txn_commit;
      P.Txn_begin { key = 1 }; new_obj; P.Txn_abort; new_obj;
    ]
  in
  let pick () =
    match Random.State.int prng 100 with
    | n when n < 15 -> P.Txn_begin { key = own }
    | n when n < 20 -> P.Txn_begin { key = Random.State.int prng 2 }
    | n when n < 40 -> buy card (float_of_int (1 + Random.State.int prng 60))
    | n when n < 43 -> buy card 1e6
    | n when n < 53 -> pay card (float_of_int (1 + Random.State.int prng 40))
    | n when n < 61 -> bal
    | n when n < 68 -> foreign_read
    | n when n < 73 -> new_obj
    | n when n < 78 -> snap
    | n when n < 81 -> P.Ping
    | n when n < 83 -> P.Stats
    | n when n < 93 -> P.Txn_commit
    | n when n < 98 -> P.Txn_abort
    | _ -> P.Invoke { obj = card; meth = "BlackMark"; args = [ Value.Str "x"; Value.Int 0 ] }
  in
  prefix @ List.init 40 (fun _ -> pick ()) @ [ P.Txn_commit ]

(* Merge per-stream scripts into one submission order, keeping each
   stream's own order. *)
let interleave prng scripts =
  let rest = Array.copy scripts in
  let rec go acc =
    let live = List.filter (fun i -> rest.(i) <> []) (List.init (Array.length rest) Fun.id) in
    match live with
    | [] -> List.rev acc
    | _ -> (
        let i = List.nth live (Random.State.int prng (List.length live)) in
        match rest.(i) with
        | req :: tl ->
            rest.(i) <- tl;
            go ((i + 1, req) :: acc)
        | [] -> assert false)
  in
  go []

let pipelined_equals_one_at_a_time () =
  Seeds.with_seed "net.pipelined_differential" @@ fun seed ->
  let k = shards () and n_streams = 3 in
  let run ~pipelined script_of =
    with_server ~k @@ fun addr _server fleet ->
    let c = Client.connect addr in
    let fixed =
      Array.init k (fun s ->
          Client.txn_begin c ~stream:1 ~key:s;
          let o = Client.new_obj c ~stream:1 ~cls:"Customer" [ ("name", Value.Str (Printf.sprintf "fixed %d" s)) ] in
          Client.txn_commit c ~stream:1;
          o)
    in
    let cards =
      Array.init n_streams (fun i ->
          let card, commit = credit_card c ~stream:1 ~key:(i + 1) ~limit:300.0 in
          ignore (Client.activate c ~stream:1 card ~trigger:"DenyCredit" ~args:[]);
          ignore (Client.activate c ~stream:1 card ~trigger:"AutoRaiseLimit" ~args:[ Value.Float 100.0 ]);
          commit ();
          card)
    in
    let foreign card = fixed.((Sharded.shard_of fleet (Oid.to_int card) + 1) mod k) in
    let steps = script_of cards foreign in
    let replies =
      if pipelined then
        List.map (fun (stream, req) -> Client.send c ~stream req) steps |> List.map (Client.await c)
      else List.map (fun (stream, req) -> Client.call c ~stream req) steps
    in
    let rendered =
      List.map2
        (fun (stream, _) r -> Printf.sprintf "stream %d: %s" stream (render_reply fleet r))
        steps replies
    in
    let final =
      Array.to_list cards
      |> List.concat_map (fun card ->
             List.map
               (fun f -> Printf.sprintf "%s %s" f (Value.to_string (Client.get_field c card f)))
               [ "currBal"; "credLim"; "black_marks" ])
    in
    let pipelined_count = List.assoc "net.pipelined" (Client.stats c) in
    Client.close c;
    (steps, rendered, final, pipelined_count)
  in
  for round = 0 to 3 do
    let prng = Random.State.make [| seed; 0x91FE; round |] in
    let script_of cards foreign =
      interleave prng (Array.map (fun card -> gen_script prng ~card ~foreign:(foreign card)) cards)
    in
    let steps, piped, piped_final, rode = run ~pipelined:true script_of in
    let _, single, single_final, rode_single = run ~pipelined:false (fun _ _ -> steps) in
    Alcotest.(check (list string)) (Printf.sprintf "round %d replies" round) single piped;
    Alcotest.(check (list string)) (Printf.sprintf "round %d final cards" round) single_final piped_final;
    Alcotest.(check bool) (Printf.sprintf "round %d: requests rode (%d)" round rode) true (rode > 0);
    Alcotest.(check int) (Printf.sprintf "round %d: none rode one at a time" round) 0 rode_single
  done

(* [net.pipelined] counts requests sent behind in-flight ones of their
   stream: some for pipelined transactions, none for the same
   transactions one call at a time. *)
let pipelined_counter () =
  let txns ~pipelined =
    with_server @@ fun addr server _fleet ->
    let c = Client.connect addr in
    let card, commit = credit_card c ~stream:1 ~key:0 ~limit:1e9 in
    commit ();
    let reqs =
      [ P.Txn_begin { key = Oid.to_int card }; buy card 2.0; pay card 1.0;
        P.Get_field { obj = card; field = "currBal" }; P.Txn_commit ]
    in
    for _ = 1 to 50 do
      let replies =
        if pipelined then List.map (Client.send c ~stream:1) reqs |> List.map (Client.await c)
        else List.map (Client.call c ~stream:1) reqs
      in
      List.iter (function P.Done _ -> () | _ -> Alcotest.fail "transaction failed") replies
    done;
    Alcotest.(check bool) "balance" true (Client.get_field c card "currBal" = Value.Float 50.0);
    Client.close c;
    List.assoc "net.pipelined" (Server.counters server)
  in
  let piped = txns ~pipelined:true in
  Alcotest.(check bool) (Printf.sprintf "pipelined transactions ride (%d)" piped) true (piped > 0);
  Alcotest.(check int) "one call at a time never rides" 0 (txns ~pipelined:false)

(* Graceful shutdown while 4 streams per client pipeline whole
   transactions: no acknowledged commit lost, nothing abandoned, and no
   transaction left open on any shard. *)
let shutdown_pipelined_txns () =
  let k = shards () in
  let fleet = credit_fleet k in
  let server = Server.start ~fleet ~listen:[ fresh_addr () ] () in
  let addr = List.hd (Server.addrs server) in
  let n_clients = 3 and streams = 4 in
  let acked = Array.make n_clients 0 and sent = Array.make n_clients 0 in
  let cards = Array.make n_clients [||] in
  let worker i =
    try
      let c = Client.connect addr in
      cards.(i) <-
        Array.init streams (fun s ->
            let card, commit = credit_card c ~stream:1 ~key:((i * streams) + s) ~limit:1e9 in
            commit ();
            card);
      (try
         for _ = 1 to 5_000 do
           let syncs =
             Array.mapi
               (fun s card ->
                 Array.map (Client.send c ~stream:(s + 1))
                   [| P.Txn_begin { key = Oid.to_int card }; buy card 1.0; pay card 1.0; P.Txn_commit |])
               cards.(i)
           in
           sent.(i) <- sent.(i) + streams;
           Array.iter
             (fun ss ->
               Array.iter
                 (fun sync ->
                   match Client.await c sync with
                   | P.Done _ -> ()
                   | P.Fail { code = P.E_shutdown; _ } -> raise Exit
                   | P.Fail { msg; _ } -> failwith msg)
                 ss;
               acked.(i) <- acked.(i) + 1)
             syncs
         done
       with Exit | Client.Net_error _ -> ());
      Client.close c
    with Client.Net_error _ -> ()
  in
  let threads = Array.init n_clients (fun i -> Thread.create worker i) in
  Thread.delay 0.15;
  let report = Server.stop server in
  Array.iter Thread.join threads;
  Alcotest.(check bool) "reactor healthy" true (report.Server.r_failure = None);
  Alcotest.(check int) "nothing abandoned" 0 report.Server.r_abandoned;
  Sharded.sync fleet;
  for shard = 0 to k - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d has no open transaction" shard)
      true
      (Session.quiescent (Sharded.session fleet shard))
  done;
  (* Each committed transaction made exactly one purchase. *)
  let committed = ref 0 in
  Array.iter
    (Array.iter (fun card ->
         Sharded.with_shard fleet ~key:(Oid.to_int card) (fun env ->
             Session.with_txn env (fun txn ->
                 committed := !committed + Value.to_int (Session.get_field env txn card "purchases")))))
    cards;
  let total_acked = Array.fold_left ( + ) 0 acked in
  let total_sent = Array.fold_left ( + ) 0 sent in
  Sharded.shutdown fleet;
  Alcotest.(check bool)
    (Printf.sprintf "acked %d <= committed %d <= sent %d" total_acked !committed total_sent)
    true
    (total_acked <= !committed && !committed <= total_sent);
  Alcotest.(check bool) "some traffic actually flowed" true (total_acked > 0)

(* ------------------------------------------------------------------ *)
(* A drain answers every request it has read: the requests queued behind
   a slow in-flight one get E_shutdown ("not executed"), not silence. *)

let shutdown_answers_queued () =
  let k = shards () in
  let fleet = credit_fleet k in
  let addr = fresh_addr () in
  let path = match addr with Server.Unix_sock p -> p | Server.Tcp _ -> assert false in
  let server = Server.start ~fleet ~listen:[ addr ] () in
  let c = Client.connect addr in
  let obj = Client.new_obj c ~cls:"Customer" [ ("name", Value.Str "q") ] in
  Client.close c;
  (* Hold every shard until the drain has begun; the server unlinks its
     socket when it starts to drain. *)
  let gate = Semaphore.Binary.make false in
  for shard = 0 to k - 1 do
    Sharded.post_foreign fleet ~shard (fun _ ->
        Semaphore.Binary.acquire gate;
        Semaphore.Binary.release gate)
  done;
  let fd = connect_raw addr in
  let chunks = P.Chunks.create () in
  let send ~stream sync req = send_raw fd (P.encode_request ~sync ~stream req) in
  send ~stream:0 1 (P.Hello { magic = P.magic; version = P.version });
  (match read_reply fd chunks with
  | 1, P.Done (P.P_pong _) -> ()
  | _ -> Alcotest.fail "handshake failed");
  (* Per stream: a read in flight on its held shard, then a Ping that
     cannot ride behind it, then a read queued behind the Ping. *)
  let get = P.Get_field { obj; field = "name" } in
  let streams = [ 1; 2; 3 ] in
  List.iter
    (fun s ->
      send ~stream:s (10 * s) get;
      send ~stream:s ((10 * s) + 1) P.Ping;
      send ~stream:s ((10 * s) + 2) get)
    streams;
  (* A Ping on an idle stream is answered at once: when its reply is
     back, the server has read every frame sent before it. *)
  send ~stream:99 99 P.Ping;
  (match read_reply fd chunks with
  | 99, P.Done (P.P_pong _) -> ()
  | sync, _ -> Alcotest.failf "expected the barrier Ping's reply, got sync %d" sync);
  let opener =
    Thread.create
      (fun t0 ->
        while Sys.file_exists path && Unix.gettimeofday () -. t0 < 10.0 do Thread.delay 0.005 done;
        Semaphore.Binary.release gate)
      (Unix.gettimeofday ())
  in
  let report = Server.stop server in
  Thread.join opener;
  let rec to_eof acc =
    match read_reply fd chunks with
    | reply -> to_eof (reply :: acc)
    | exception (Failure _ | Unix.Unix_error _) -> acc
  in
  let replies = to_eof [] in
  Unix.close fd;
  Sharded.shutdown fleet;
  Alcotest.(check bool) "reactor healthy" true (report.Server.r_failure = None);
  Alcotest.(check int) "nothing abandoned" 0 report.Server.r_abandoned;
  Alcotest.(check int) "queued requests dropped" 6 report.Server.r_dropped_requests;
  Alcotest.(check int) "streams that lost work" 3 report.Server.r_dropped_streams;
  let outcome = function
    | P.Done (P.P_value (Value.Str "q")) -> "result"
    | P.Fail { code = P.E_shutdown; _ } -> "shutdown"
    | _ -> "other"
  in
  Alcotest.(check (list (pair int string)))
    "exactly one reply per request read"
    (List.concat_map
       (fun s -> [ (10 * s, "result"); ((10 * s) + 1, "shutdown"); ((10 * s) + 2, "shutdown") ])
       streams)
    (List.sort compare (List.map (fun (sync, reply) -> (sync, outcome reply)) replies))

let suite =
  [
    Alcotest.test_case "proto round-trip property" `Quick proto_roundtrip;
    Alcotest.test_case "garbage frames rejected, connection survives" `Quick
      garbage_frames_survive;
    Alcotest.test_case "version mismatch handshake" `Quick version_mismatch;
    Alcotest.test_case "api flows over the wire" `Quick api_flows;
    Alcotest.test_case "concurrent clients match in-process reference" `Quick
      concurrent_equivalence;
    Alcotest.test_case "slow stream does not block fast stream" `Quick slow_stream_no_hol;
    Alcotest.test_case "graceful shutdown loses no acked commit" `Quick shutdown_no_loss;
    Alcotest.test_case "two servers in one process" `Quick two_servers_one_process;
    Alcotest.test_case "pipelined replies equal one-at-a-time replies" `Quick
      pipelined_equals_one_at_a_time;
    Alcotest.test_case "net.pipelined counts ridden requests" `Quick pipelined_counter;
    Alcotest.test_case "graceful shutdown under pipelined transactions" `Quick
      shutdown_pipelined_txns;
    Alcotest.test_case "graceful shutdown answers queued requests" `Quick
      shutdown_answers_queued;
  ]
