module Metrics = Ode_util.Metrics

(* Frames form an intrusive doubly-linked recency list: [prev] points
   toward the MRU head, [next] toward the LRU tail. Victim selection is
   the tail — O(1), where the previous implementation scanned the whole
   table per eviction (O(n) with a per-frame logical clock). *)
type frame = {
  id : int;
  page : Page.t;
  mutable dirty : bool;
  mutable prev : frame option;
  mutable next : frame option;
}

type t = {
  pager : Pager.t;
  capacity : int;
  faults : Faults.t;
  frames : (int, frame) Hashtbl.t;
  mutable head : frame option;  (* most recently used *)
  mutable tail : frame option;  (* least recently used: the victim *)
  metrics : Metrics.t;
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  writebacks : Metrics.counter;
}

let create ?faults pager ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let m = Metrics.create () in
  {
    pager;
    capacity;
    faults;
    frames = Hashtbl.create 64;
    head = None;
    tail = None;
    metrics = m;
    hits = Metrics.counter m "pool_hits";
    misses = Metrics.counter m "pool_misses";
    evictions = Metrics.counter m "pool_evictions";
    writebacks = Metrics.counter m "pool_writebacks";
  }

let metrics t = t.metrics

let unlink t frame =
  (match frame.prev with Some p -> p.next <- frame.next | None -> t.head <- frame.next);
  (match frame.next with Some n -> n.prev <- frame.prev | None -> t.tail <- frame.prev);
  frame.prev <- None;
  frame.next <- None

let push_front t frame =
  frame.prev <- None;
  frame.next <- t.head;
  (match t.head with Some h -> h.prev <- Some frame | None -> t.tail <- Some frame);
  t.head <- Some frame

let touch t frame =
  match t.head with
  | Some h when h == frame -> ()
  | _ ->
      unlink t frame;
      push_front t frame

let writeback t frame =
  if frame.dirty then begin
    Pager.write t.pager frame.id frame.page;
    frame.dirty <- false;
    Metrics.incr t.writebacks
  end

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some frame ->
      (match Faults.check t.faults Faults.Pool_evict with
      | `Proceed -> ()
      | `Torn _ -> Faults.torn_crash t.faults Faults.Pool_evict);
      writeback t frame;
      unlink t frame;
      Hashtbl.remove t.frames frame.id;
      Metrics.incr t.evictions

let with_page t id ~dirty f =
  let frame =
    match Hashtbl.find_opt t.frames id with
    | Some frame ->
        Metrics.incr t.hits;
        frame
    | None ->
        Metrics.incr t.misses;
        if Hashtbl.length t.frames >= t.capacity then evict_lru t;
        let frame = { id; page = Pager.read t.pager id; dirty = false; prev = None; next = None } in
        Hashtbl.replace t.frames id frame;
        push_front t frame;
        frame
  in
  touch t frame;
  if dirty then frame.dirty <- true;
  f frame.page

(* Recency order (MRU first): deterministic, unlike a Hashtbl fold, so
   fault-point numbering under [flush_all] is reproducible. *)
let flush_all t =
  let rec go = function
    | None -> ()
    | Some frame ->
        writeback t frame;
        go frame.next
  in
  go t.head

let drop_all t =
  Hashtbl.reset t.frames;
  t.head <- None;
  t.tail <- None
