(* Differential storage test: the same randomized transactional workload
   is applied to a Mem_store and a Disk_store registered with the same
   transaction manager, so every commit/abort hits both backends in the
   same transaction. After every transaction boundary the two stores must
   expose identical visible state — the interchangeability contract the
   paper's MM-Ode/disk-Ode split relies on. *)

module Store = Ode_storage.Store
module Mem_store = Ode_storage.Mem_store
module Disk_store = Ode_storage.Disk_store
module Txn = Ode_storage.Txn
module Rid = Ode_storage.Rid
module Wal = Ode_storage.Wal
module Recovery = Ode_storage.Recovery
module Prng = Ode_util.Prng

let dump ops txn =
  let acc = ref [] in
  ops.Store.iter txn (fun rid payload -> acc := (Rid.to_int rid, Bytes.to_string payload) :: !acc);
  List.sort compare !acc

let random_payload prng =
  Bytes.init (1 + Prng.int prng 24) (fun _ -> Char.chr (32 + Prng.int prng 95))

(* One randomized run: [rounds] transactions of random insert / update /
   delete / read ops mirrored on both stores, each randomly committed or
   aborted; visible state compared after every transaction. *)
let differential_run ~page_size ~pool_capacity seed rounds =
  let mgr = Txn.create_mgr () in
  let mem = Mem_store.ops (Mem_store.create ~mgr ~name:"mem" ()) in
  let disk =
    Disk_store.ops
      (Disk_store.create
         ~settings:{ Ode_storage.Settings.default with page_size; pool_capacity }
         ~mgr ~name:"disk" ())
  in
  let prng = Prng.create ~seed:(Int64.of_int seed) in
  let live = ref [] in  (* rids present in committed state, newest first *)
  for round = 1 to rounds do
    let txn = Txn.begin_txn mgr in
    (* Track rids inserted/deleted inside this txn so ops stay valid. *)
    let txn_live = ref !live in
    let pick () =
      match !txn_live with
      | [] -> None
      | rids -> Some (List.nth rids (Prng.int prng (List.length rids)))
    in
    let nops = 1 + Prng.int prng 8 in
    for _ = 1 to nops do
      match Prng.int prng 10 with
      | 0 | 1 | 2 | 3 -> begin
          let payload = random_payload prng in
          let rid_mem = mem.Store.insert txn payload in
          let rid_disk = disk.Store.insert txn payload in
          if not (Rid.equal rid_mem rid_disk) then
            Alcotest.failf "round %d: stores assigned different rids (%a vs %a)" round Rid.pp
              rid_mem Rid.pp rid_disk;
          txn_live := rid_mem :: !txn_live
        end
      | 4 | 5 | 6 -> begin
          match pick () with
          | None -> ()
          | Some rid ->
              let payload = random_payload prng in
              mem.Store.update txn rid payload;
              disk.Store.update txn rid payload
        end
      | 7 -> begin
          match pick () with
          | None -> ()
          | Some rid ->
              mem.Store.delete txn rid;
              disk.Store.delete txn rid;
              txn_live := List.filter (fun r -> not (Rid.equal r rid)) !txn_live
        end
      | _ -> begin
          match pick () with
          | None -> ()
          | Some rid ->
              let a = mem.Store.read txn rid in
              let b = disk.Store.read txn rid in
              if a <> b then Alcotest.failf "round %d: read disagrees on %a" round Rid.pp rid
        end
    done;
    if Prng.chance prng 0.3 then Txn.abort txn
    else begin
      Txn.commit txn;
      live := !txn_live
    end;
    (* Visible state must agree after every transaction boundary. *)
    let probe = Txn.begin_txn ~system:true mgr in
    let mem_state = dump mem probe in
    let disk_state = dump disk probe in
    Txn.commit probe;
    if mem_state <> disk_state then
      Alcotest.failf "round %d: visible state diverged (%d vs %d records)" round
        (List.length mem_state) (List.length disk_state);
    if Prng.chance prng 0.1 then begin
      mem.Store.checkpoint ();
      disk.Store.checkpoint ()
    end
  done;
  (* Both WALs must recover to the same committed state too. *)
  let recover name wal =
    Recovery.committed_state (Wal.decode_records (Wal.durable_bytes wal))
    |> List.map (fun (rid, payload) -> (Rid.to_int rid, Bytes.to_string payload))
    |> fun state -> (name, List.sort compare state)
  in
  let _, from_mem = recover "mem" mem.Store.wal in
  let _, from_disk = recover "disk" disk.Store.wal in
  if from_mem <> from_disk then Alcotest.fail "recovered committed states diverged";
  (* One logical layer over two physical maps: the logs and the logical
     counters must match byte for byte and count for count. *)
  if not (Bytes.equal (Wal.durable_bytes mem.Store.wal) (Wal.durable_bytes disk.Store.wal)) then
    Alcotest.fail "durable WAL bytes diverged";
  let logical ops =
    let counters = Ode_util.Metrics.values ops.Store.metrics in
    List.map
      (fun name -> (name, List.assoc name counters))
      [ "inserts"; "reads"; "updates"; "deletes"; "wal_flushes"; "wal_bytes"; "ckpt_fulls";
        "ckpt_deltas"; "dirty_rids" ]
  in
  Alcotest.(check (list (pair string int))) "logical counters agree" (logical mem) (logical disk);
  let probe = Txn.begin_txn ~system:true mgr in
  let final = dump mem probe in
  Txn.commit probe;
  Alcotest.(check bool) "workload left data behind" true (List.length final > 0);
  Alcotest.(check (list (pair int string))) "durable state matches visible state" final from_mem

let mirrored () =
  Seeds.with_seed "differential.mirrored" (fun seed ->
      differential_run ~page_size:4096 ~pool_capacity:64 seed 60)

let mirrored_tiny_pages () =
  (* Small pages and a tiny pool force relocations and evictions on the
     disk side; the mem store must still agree at every boundary. *)
  Seeds.with_seed "differential.tiny" (fun seed ->
      differential_run ~page_size:128 ~pool_capacity:1 (seed + 1) 60)

let suite =
  [
    Alcotest.test_case "mem/disk mirrored workload" `Quick mirrored;
    Alcotest.test_case "mem/disk mirrored (tiny pages)" `Quick mirrored_tiny_pages;
  ]
