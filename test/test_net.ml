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
    "net.replies"; "net.shards";
  ]

(* Run [f client server fleet] against a fresh fleet + server, tearing
   both down afterwards (server first — it posts into the mailboxes). *)
let with_server ?(k = shards ()) f =
  let fleet =
    Sharded.create ~shards:k ~mode:Sharded.Free
      ~schema:(fun ~shard:_ env -> Credit_card.define_all env)
      ()
  in
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
  ]
