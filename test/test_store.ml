(* Record stores (disk and main-memory behind the uniform interface):
   CRUD, transactional rollback, page relocation, and a randomized
   differential test with commit/abort boundaries. *)

module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Disk_store = Ode_storage.Disk_store
module Mem_store = Ode_storage.Mem_store
module Rid = Ode_storage.Rid
module Prng = Ode_util.Prng

let b = Bytes.of_string

let make_store kind =
  let mgr = Txn.create_mgr () in
  let store =
    match kind with
    | `Disk ->
        Disk_store.ops
          (Disk_store.create ~mgr ~name:"t"
             ~settings:{ Ode_storage.Settings.default with page_size = 256; pool_capacity = 4 }
             ())
    | `Mem -> Mem_store.ops (Mem_store.create ~mgr ~name:"t" ())
  in
  (mgr, store)

let crud kind () =
  let mgr, store = make_store kind in
  let txn = Txn.begin_txn mgr in
  let r0 = store.Store.insert txn (b "zero") in
  let r1 = store.Store.insert txn (b "one") in
  Alcotest.(check (option string)) "read r0" (Some "zero")
    (Option.map Bytes.to_string (store.Store.read txn r0));
  store.Store.update txn r1 (b "uno");
  Alcotest.(check (option string)) "updated" (Some "uno")
    (Option.map Bytes.to_string (store.Store.read txn r1));
  store.Store.delete txn r0;
  Alcotest.(check (option string)) "deleted" None
    (Option.map Bytes.to_string (store.Store.read txn r0));
  Alcotest.(check int) "count" 1 (store.Store.record_count ());
  Txn.commit txn;
  let txn2 = Txn.begin_txn mgr in
  Alcotest.(check (option string)) "visible after commit" (Some "uno")
    (Option.map Bytes.to_string (store.Store.read txn2 r1));
  Txn.commit txn2

let rollback kind () =
  let mgr, store = make_store kind in
  let txn = Txn.begin_txn mgr in
  let kept = store.Store.insert txn (b "kept") in
  Txn.commit txn;
  let txn = Txn.begin_txn mgr in
  let doomed = store.Store.insert txn (b "doomed") in
  store.Store.update txn kept (b "scribbled");
  Txn.abort txn;
  let txn = Txn.begin_txn mgr in
  Alcotest.(check (option string)) "insert rolled back" None
    (Option.map Bytes.to_string (store.Store.read txn doomed));
  Alcotest.(check (option string)) "update rolled back" (Some "kept")
    (Option.map Bytes.to_string (store.Store.read txn kept));
  Alcotest.(check int) "count back to 1" 1 (store.Store.record_count ());
  (* Delete rollback. *)
  store.Store.delete txn kept;
  Txn.abort txn;
  let txn = Txn.begin_txn mgr in
  Alcotest.(check (option string)) "delete rolled back" (Some "kept")
    (Option.map Bytes.to_string (store.Store.read txn kept));
  Txn.commit txn

let misuse kind () =
  let mgr, store = make_store kind in
  let txn = Txn.begin_txn mgr in
  let ghost = Rid.of_int 999 in
  (match store.Store.update txn ghost (b "x") with
  | _ -> Alcotest.fail "update of unknown record must fail"
  | exception Store.Store_error _ -> ());
  (match store.Store.delete txn ghost with
  | _ -> Alcotest.fail "delete of unknown record must fail"
  | exception Store.Store_error _ -> ());
  Alcotest.(check (option string)) "read of unknown is None" None
    (Option.map Bytes.to_string (store.Store.read txn ghost));
  Txn.commit txn;
  (* Operating under a finished transaction fails. *)
  match store.Store.insert txn (b "late") with
  | _ -> Alcotest.fail "insert under finished txn must fail"
  | exception Txn.Invalid_state _ -> ()

let oversized_disk_record () =
  let mgr, store = make_store `Disk in
  let txn = Txn.begin_txn mgr in
  match store.Store.insert txn (Bytes.make 4000 'x') with
  | _ -> Alcotest.fail "oversized record must be rejected (page_size 256)"
  | exception Store.Store_error _ -> Txn.abort txn

let relocation_on_growth () =
  (* Fill a page, then grow a record until it must move; its rid must stay
     valid (directory indirection). *)
  let mgr, store = make_store `Disk in
  let txn = Txn.begin_txn mgr in
  let rids = List.init 6 (fun i -> store.Store.insert txn (Bytes.make 30 (Char.chr (65 + i)))) in
  let victim = List.hd rids in
  store.Store.update txn victim (Bytes.make 150 'Z');
  Alcotest.(check (option int)) "grown record readable via same rid" (Some 150)
    (Option.map Bytes.length (store.Store.read txn victim));
  List.iteri
    (fun i rid ->
      if i > 0 then
        Alcotest.(check (option char)) "others intact"
          (Some (Char.chr (65 + i)))
          (Option.map (fun bytes -> Bytes.get bytes 0) (store.Store.read txn rid)))
    rids;
  Txn.commit txn

let iter_order kind () =
  let mgr, store = make_store kind in
  let txn = Txn.begin_txn mgr in
  let r0 = store.Store.insert txn (b "a") in
  let r1 = store.Store.insert txn (b "b") in
  let r2 = store.Store.insert txn (b "c") in
  store.Store.delete txn r1;
  let seen = ref [] in
  store.Store.iter txn (fun rid payload -> seen := (rid, Bytes.to_string payload) :: !seen);
  Alcotest.(check (list (pair int string))) "rid order, live only"
    [ (Rid.to_int r0, "a"); (Rid.to_int r2, "c") ]
    (List.rev_map (fun (rid, s) -> (Rid.to_int rid, s)) !seen);
  Txn.commit txn

let rids_not_reused kind () =
  let mgr, store = make_store kind in
  let txn = Txn.begin_txn mgr in
  let r0 = store.Store.insert txn (b "a") in
  store.Store.delete txn r0;
  let r1 = store.Store.insert txn (b "b") in
  Alcotest.(check bool) "fresh rid" false (Rid.equal r0 r1);
  Txn.commit txn

let differential kind seed () =
  (* Random CRUD across many transactions, some aborted; a model tracks
     only committed state plus the current transaction's view. *)
  let mgr, store = make_store kind in
  let prng = Prng.create ~seed in
  let committed = Hashtbl.create 64 in
  for _round = 1 to 60 do
    let txn = Txn.begin_txn mgr in
    let view = Hashtbl.copy committed in
    let live () = Hashtbl.fold (fun rid _ acc -> rid :: acc) view [] in
    for _op = 1 to Prng.int_in prng 1 15 do
      match Prng.int prng 4 with
      | 0 ->
          let payload = Bytes.make (Prng.int prng 60) (Char.chr (97 + Prng.int prng 26)) in
          let rid = store.Store.insert txn payload in
          Hashtbl.replace view rid payload
      | 1 -> begin
          match live () with
          | [] -> ()
          | rids ->
              let rid = Prng.pick_list prng rids in
              let payload = Bytes.make (Prng.int prng 90) 'u' in
              store.Store.update txn rid payload;
              Hashtbl.replace view rid payload
        end
      | 2 -> begin
          match live () with
          | [] -> ()
          | rids ->
              let rid = Prng.pick_list prng rids in
              store.Store.delete txn rid;
              Hashtbl.remove view rid
        end
      | _ -> begin
          match live () with
          | [] -> ()
          | rids ->
              let rid = Prng.pick_list prng rids in
              let expected = Hashtbl.find_opt view rid in
              let actual = store.Store.read txn rid in
              if Option.map Bytes.to_string actual <> Option.map Bytes.to_string expected then
                Alcotest.fail "read diverged from model"
        end
    done;
    if Prng.chance prng 0.3 then Txn.abort txn
    else begin
      Txn.commit txn;
      Hashtbl.reset committed;
      Hashtbl.iter (fun rid payload -> Hashtbl.replace committed rid payload) view
    end;
    (* Cross-check full contents against committed model. *)
    let txn = Txn.begin_txn mgr in
    let contents = ref [] in
    store.Store.iter txn (fun rid payload -> contents := (rid, payload) :: !contents);
    Txn.commit txn;
    let expected =
      Hashtbl.fold (fun rid payload acc -> (rid, payload) :: acc) committed []
      |> List.sort (fun (a, _) (b, _) -> Rid.compare a b)
    in
    let actual = List.sort (fun (a, _) (b, _) -> Rid.compare a b) !contents in
    if
      List.length expected <> List.length actual
      || not
           (List.for_all2
              (fun (r1, p1) (r2, p2) -> Rid.equal r1 r2 && Bytes.equal p1 p2)
              expected actual)
    then Alcotest.fail "store contents diverged from committed model"
  done

(* The sorted-scan cache behind [iter]: repeated scans between mutations
   reuse the cached rid order, and every insert/delete (including rolled
   back ones, which physically mutate and then undo) invalidates it. *)
let iter_cache_invalidation kind () =
  let mgr, store = make_store kind in
  let scan txn =
    let seen = ref [] in
    store.Store.iter txn (fun rid payload -> seen := (Rid.to_int rid, Bytes.to_string payload) :: !seen);
    List.rev !seen
  in
  let txn = Txn.begin_txn mgr in
  let r0 = store.Store.insert txn (b "a") in
  let r1 = store.Store.insert txn (b "b") in
  let first = scan txn in
  Alcotest.(check (list (pair int string)))
    "repeated scan stable"
    first (scan txn);
  let r2 = store.Store.insert txn (b "c") in
  Alcotest.(check (list (pair int string)))
    "insert visible after cached scan"
    [ (Rid.to_int r0, "a"); (Rid.to_int r1, "b"); (Rid.to_int r2, "c") ]
    (scan txn);
  store.Store.delete txn r1;
  Alcotest.(check (list (pair int string)))
    "delete visible after cached scan"
    [ (Rid.to_int r0, "a"); (Rid.to_int r2, "c") ]
    (scan txn);
  store.Store.update txn r0 (b "a2");
  Alcotest.(check (list (pair int string)))
    "update visible (same rids)"
    [ (Rid.to_int r0, "a2"); (Rid.to_int r2, "c") ]
    (scan txn);
  Txn.commit txn;
  (* Rolled-back mutations must leave the scan unchanged. *)
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b "doomed"));
  store.Store.delete txn r2;
  Txn.abort txn;
  let txn = Txn.begin_txn mgr in
  Alcotest.(check (list (pair int string)))
    "scan after rollback matches committed state"
    [ (Rid.to_int r0, "a2"); (Rid.to_int r2, "c") ]
    (scan txn);
  Txn.commit txn

let wal_flush_on_commit kind () =
  let mgr, store = make_store kind in
  let flushes () = Ode_util.Metrics.get store.Store.metrics "wal_flushes" in
  let flushes_before = flushes () in
  let txn = Txn.begin_txn mgr in
  ignore (store.Store.insert txn (b "x"));
  Txn.commit txn;
  Alcotest.(check bool) "commit forces the log" true
    (flushes () > flushes_before)

let both label f = [
  Alcotest.test_case (label ^ " (mem)") `Quick (f `Mem);
  Alcotest.test_case (label ^ " (disk)") `Quick (f `Disk);
]

let suite =
  List.concat
    [
      both "crud" crud;
      both "rollback" rollback;
      both "misuse errors" misuse;
      [ Alcotest.test_case "oversized disk record" `Quick oversized_disk_record ];
      [ Alcotest.test_case "relocation on growth" `Quick relocation_on_growth ];
      both "iter order" iter_order;
      both "iter cache invalidation" iter_cache_invalidation;
      both "rids not reused" rids_not_reused;
      [
        Alcotest.test_case "differential (mem)" `Quick (differential `Mem 21L);
        Alcotest.test_case "differential (disk)" `Quick (differential `Disk 22L);
      ];
      both "wal flushed on commit" wal_flush_on_commit;
    ]
