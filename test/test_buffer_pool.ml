(* Buffer pool: hits/misses, LRU eviction with writeback, drop_all. *)

module Pager = Ode_storage.Pager
module Page = Ode_storage.Page
module Buffer_pool = Ode_storage.Buffer_pool
module Metrics = Ode_util.Metrics

let pool_count pool name = Metrics.get (Buffer_pool.metrics pool) ("pool_" ^ name)
let page_writes pager = Metrics.get (Pager.metrics pager) "page_writes"

let setup ~capacity ~pages =
  let pager = Pager.create ~page_size:256 () in
  let ids = List.init pages (fun _ -> Pager.alloc pager) in
  Metrics.reset (Pager.metrics pager);
  let pool = Buffer_pool.create pager ~capacity in
  (pager, pool, Array.of_list ids)

let hits_and_misses () =
  let _pager, pool, ids = setup ~capacity:4 ~pages:3 in
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun _ -> ());
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun _ -> ());
  Buffer_pool.with_page pool ids.(1) ~dirty:false (fun _ -> ());
  Alcotest.(check int) "hits" 1 (pool_count pool "hits");
  Alcotest.(check int) "misses" 2 (pool_count pool "misses")

let lru_eviction_writes_back () =
  let pager, pool, ids = setup ~capacity:2 ~pages:3 in
  (* Dirty page 0, touch page 1, then fault page 2: page 0 is LRU and must
     be written back on eviction. *)
  Buffer_pool.with_page pool ids.(0) ~dirty:true (fun page ->
      ignore (Page.insert page (Bytes.of_string "dirty")));
  Buffer_pool.with_page pool ids.(1) ~dirty:false (fun _ -> ());
  Buffer_pool.with_page pool ids.(2) ~dirty:false (fun _ -> ());
  Alcotest.(check int) "one eviction" 1 (pool_count pool "evictions");
  Alcotest.(check int) "one writeback" 1 (pool_count pool "writebacks");
  Alcotest.(check int) "physical write happened" 1 (page_writes pager);
  (* Re-faulting page 0 sees the written-back record. *)
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun page ->
      Alcotest.(check (option string)) "contents survived eviction" (Some "dirty")
        (Option.map Bytes.to_string (Page.read page 0)))

let lru_prefers_cold_pages () =
  let _pager, pool, ids = setup ~capacity:2 ~pages:3 in
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun _ -> ());
  Buffer_pool.with_page pool ids.(1) ~dirty:false (fun _ -> ());
  (* Touch 0 again: 1 becomes LRU. *)
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun _ -> ());
  Buffer_pool.with_page pool ids.(2) ~dirty:false (fun _ -> ());
  (* 0 should still be cached (hit), 1 evicted. *)
  let before = (pool_count pool "hits") in
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun _ -> ());
  Alcotest.(check int) "page 0 still resident" (before + 1) (pool_count pool "hits")

let drop_all_discards () =
  let pager, pool, ids = setup ~capacity:2 ~pages:1 in
  Buffer_pool.with_page pool ids.(0) ~dirty:true (fun page ->
      ignore (Page.insert page (Bytes.of_string "lost")));
  Buffer_pool.drop_all pool;
  Alcotest.(check int) "nothing written back" 0 (page_writes pager);
  (* The page on "disk" is still empty. *)
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun page ->
      Alcotest.(check int) "crash discarded the dirty frame" 0 (Page.live_slots page))

let flush_all_keeps_frames () =
  let pager, pool, ids = setup ~capacity:2 ~pages:1 in
  Buffer_pool.with_page pool ids.(0) ~dirty:true (fun page ->
      ignore (Page.insert page (Bytes.of_string "kept")));
  Buffer_pool.flush_all pool;
  Alcotest.(check int) "written back" 1 (page_writes pager);
  let before = (pool_count pool "hits") in
  Buffer_pool.with_page pool ids.(0) ~dirty:false (fun _ -> ());
  Alcotest.(check int) "frame still cached" (before + 1) (pool_count pool "hits")

(* The intrusive-list rewrite must evict in exact LRU order: victim =
   least recently touched, with every touch (hit or fault) refreshing
   recency. Asserted through hit/miss observations so the test pins the
   policy, not the representation. *)
let eviction_order () =
  let _pager, pool, ids = setup ~capacity:2 ~pages:3 in
  let access i = Buffer_pool.with_page pool ids.(i) ~dirty:false (fun _ -> ()) in
  let expect_hit msg i =
    let before = (pool_count pool "hits") in
    access i;
    Alcotest.(check int) msg (before + 1) (pool_count pool "hits")
  in
  let expect_miss msg i =
    let before = (pool_count pool "misses") in
    access i;
    Alcotest.(check int) msg (before + 1) (pool_count pool "misses")
  in
  access 0;
  access 1;
  (* recency: [1; 0] *)
  expect_hit "touch refreshes 0" 0;
  (* recency: [0; 1] — faulting 2 must evict 1, not 0 *)
  expect_miss "fault 2" 2;
  expect_hit "0 survived (1 was the victim)" 0;
  (* recency: [0; 2] — faulting 1 must evict 2 *)
  expect_miss "re-fault 1" 1;
  expect_miss "2 was the victim" 2;
  Alcotest.(check int) "eviction count" 3 (pool_count pool "evictions")

(* Differential against a naive list-model LRU over a seeded access
   pattern: same hits, same misses, same victims at every step. *)
let eviction_order_model () =
  let capacity = 4 and pages = 9 and steps = 600 in
  let _pager, pool, ids = setup ~capacity ~pages in
  let prng = Random.State.make [| 0x1B0F |] in
  let model = ref [] in  (* resident ids, MRU first *)
  for step = 1 to steps do
    let i = Random.State.int prng pages in
    let model_hit = List.mem i !model in
    (* Model: move to front; on a miss at capacity, drop the last. *)
    let without = List.filter (fun j -> j <> i) !model in
    model := i :: (if model_hit then without
                   else if List.length without >= capacity then
                     List.filteri (fun k _ -> k < capacity - 1) without
                   else without);
    let hits0 = pool_count pool "hits" and misses0 = pool_count pool "misses" in
    Buffer_pool.with_page pool ids.(i) ~dirty:false (fun _ -> ());
    if model_hit then
      Alcotest.(check int)
        (Printf.sprintf "step %d: model hit on %d" step i)
        (hits0 + 1) (pool_count pool "hits")
    else
      Alcotest.(check int)
        (Printf.sprintf "step %d: model miss on %d" step i)
        (misses0 + 1) (pool_count pool "misses")
  done

let zero_capacity_rejected () =
  let pager = Pager.create ~page_size:256 () in
  match Buffer_pool.create pager ~capacity:0 with
  | _ -> Alcotest.fail "zero capacity accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "hits and misses" `Quick hits_and_misses;
    Alcotest.test_case "LRU eviction writes back" `Quick lru_eviction_writes_back;
    Alcotest.test_case "LRU prefers cold pages" `Quick lru_prefers_cold_pages;
    Alcotest.test_case "eviction order is exact LRU" `Quick eviction_order;
    Alcotest.test_case "eviction differential vs list model" `Quick eviction_order_model;
    Alcotest.test_case "drop_all discards dirty frames" `Quick drop_all_discards;
    Alcotest.test_case "flush_all keeps frames" `Quick flush_all_keeps_frames;
    Alcotest.test_case "zero capacity rejected" `Quick zero_capacity_rejected;
  ]
