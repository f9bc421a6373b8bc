module Binc = Ode_util.Binc
module Metrics = Ode_util.Metrics

let fail = Record_store.fail

type loc = { page : int; slot : int }

let bloom_seed = 0x0DE5EED
let bloom_fp_rate = 0.01
let new_bloom ~expected = Bloom.create ~seed:bloom_seed ~expected:(max 1024 expected) ~fp_rate:bloom_fp_rate

let encode_record rid payload =
  let w = Binc.writer () in
  Binc.write_uvarint w (Rid.to_int rid);
  Binc.write_bytes w payload;
  Binc.contents w

let decode_record bytes =
  let r = Binc.reader bytes in
  let rid = Rid.of_int (Binc.read_uvarint r) in
  let payload = Binc.read_bytes r in
  (rid, payload)

(* Slotted pages behind the buffer pool, a rid -> (page, slot) directory
   and a bloom filter in front of it. No locking or logging here. *)
module Phys = struct
  type t = {
    pager : Pager.t;
    pool : Buffer_pool.t;
    dir : loc Rid.Tbl.t;
    mutable active_page : int option;  (* current fill target *)
    roomy_pages : (int, unit) Hashtbl.t;  (* pages with reclaimed space *)
    mutable bloom : Bloom.t;  (* membership filter in front of [dir] *)
    mutable bloom_stale : int;  (* deleted rids still hashed into the filter *)
    metrics : Metrics.t;
    relocations : Metrics.counter;
    bloom_negatives : Metrics.counter;  (* lookups answered "absent" without lock or page *)
    bloom_fp : Metrics.counter;  (* bloom said maybe, directory said no *)
    bloom_incr_rebuilds : Metrics.counter;  (* full anchors served by an O(dirty) patch *)
  }

  let create pager pool =
    let m = Metrics.create () in
    let t =
      {
        pager;
        pool;
        dir = Rid.Tbl.create 256;
        active_page = None;
        roomy_pages = Hashtbl.create 16;
        bloom = new_bloom ~expected:0;
        bloom_stale = 0;
        metrics = m;
        relocations = Metrics.counter m "relocations";
        bloom_negatives = Metrics.counter m "bloom_negatives";
        bloom_fp = Metrics.counter m "bloom_fp";
        bloom_incr_rebuilds = Metrics.counter m "bloom_incremental_rebuilds";
      }
    in
    Metrics.attach m (Pager.metrics pager);
    Metrics.attach m (Buffer_pool.metrics pool);
    Metrics.gauge m "bloom_bits" (fun () -> Bloom.bit_count t.bloom);
    Metrics.gauge m "bloom_keys" (fun () -> Bloom.count t.bloom);
    Metrics.gauge m "bloom_stale_keys" (fun () -> t.bloom_stale);
    t

  let place_on_page t page_id data =
    Buffer_pool.with_page t.pool page_id ~dirty:true (fun page -> Page.insert page data)

  let try_pages t data =
    let try_page page_id =
      match place_on_page t page_id data with
      | Some slot -> Some { page = page_id; slot }
      | None ->
          Hashtbl.remove t.roomy_pages page_id;
          None
    in
    let from_active =
      match t.active_page with Some page_id -> try_page page_id | None -> None
    in
    match from_active with
    | Some loc -> Some loc
    | None ->
        let roomy = Hashtbl.fold (fun page_id () acc -> page_id :: acc) t.roomy_pages [] in
        let roomy = List.sort compare roomy in
        List.fold_left
          (fun found page_id -> match found with Some _ -> found | None -> try_page page_id)
          None roomy

  (* Place a record whose rid has no directory entry. *)
  let insert t rid payload =
    let data = encode_record rid payload in
    let page_capacity = Pager.page_size t.pager - 64 in
    if Bytes.length data > page_capacity then
      fail "record %a too large (%d bytes > page capacity %d)" Rid.pp rid (Bytes.length data)
        page_capacity;
    let loc =
      match try_pages t data with
      | Some loc -> loc
      | None -> (
          let page_id = Pager.alloc t.pager in
          t.active_page <- Some page_id;
          match place_on_page t page_id data with
          | Some slot -> { page = page_id; slot }
          | None -> fail "record does not fit on a fresh page")
    in
    Bloom.add t.bloom (Rid.to_int rid);
    Rid.Tbl.replace t.dir rid loc

  let remove t rid =
    match Rid.Tbl.find_opt t.dir rid with
    | None -> ()
    | Some loc ->
        Buffer_pool.with_page t.pool loc.page ~dirty:true (fun page -> Page.delete page loc.slot);
        Hashtbl.replace t.roomy_pages loc.page ();
        Rid.Tbl.remove t.dir rid;
        t.bloom_stale <- t.bloom_stale + 1

  (* An update that no longer fits in place relocates the record; the
     directory keeps its rid stable (persistent pointers stay valid). *)
  let put t rid payload =
    match Rid.Tbl.find_opt t.dir rid with
    | None -> insert t rid payload
    | Some loc ->
        let data = encode_record rid payload in
        let in_place =
          Buffer_pool.with_page t.pool loc.page ~dirty:true (fun page ->
              Page.update page loc.slot data)
        in
        if not in_place then begin
          Metrics.incr t.relocations;
          remove t rid;
          insert t rid payload
        end

  let find t rid =
    match Rid.Tbl.find_opt t.dir rid with
    | None -> None
    | Some loc ->
        Buffer_pool.with_page t.pool loc.page ~dirty:false (fun page ->
            match Page.read page loc.slot with
            | None -> fail "directory points at dead slot for %a" Rid.pp rid
            | Some data ->
                let stored_rid, payload = decode_record data in
                if not (Rid.equal stored_rid rid) then
                  fail "directory/page disagree on rid (%a vs %a)" Rid.pp rid Rid.pp stored_rid;
                Some payload)

  let mem t rid = Rid.Tbl.mem t.dir rid
  let count t = Rid.Tbl.length t.dir
  let iter t f = Rid.Tbl.iter (fun rid _ -> f rid) t.dir
  let maybe_mem t rid = Bloom.maybe_mem t.bloom (Rid.to_int rid)
  let note_negative t = Metrics.incr t.bloom_negatives
  let note_false_positive t = Metrics.incr t.bloom_fp

  (* Size the bloom for a bulk load up front so neither the per-record adds
     nor the recovery anchor need a rebuild pass. *)
  let presize t n = t.bloom <- new_bloom ~expected:(2 * n)

  (* Resize-and-rekey from the live directory. Runs at full checkpoints
     (flushing deleted rids out of the filter) and whenever inserts overrun
     the sized capacity by 2x (keeping the false-positive rate near its
     target as the store grows). Same seed — rebuilds are deterministic. *)
  let rebuild_bloom t =
    let bloom = new_bloom ~expected:(2 * Rid.Tbl.length t.dir) in
    Rid.Tbl.iter (fun rid _ -> Bloom.add bloom (Rid.to_int rid)) t.dir;
    t.bloom <- bloom;
    t.bloom_stale <- 0

  let after_insert t = if Bloom.count t.bloom > 2 * Bloom.expected t.bloom then rebuild_bloom t

  (* Full-anchor bloom refresh: when the checkpoint's committed delta is
     small relative to the live set and the filter is neither over capacity
     nor carrying many dead keys, patch the existing filter from the dirty
     rids instead of re-hashing the whole directory — O(dirty), not
     O(live). Deleted rids stay hashed in (false positives only, counted in
     [bloom_stale]), so the patch path keeps its own budget: once stale
     keys or insert overrun would erode the false-positive target, the next
     anchor falls back to the full walk and flushes them out. *)
  let on_full_anchor t ~dirty_rids =
    let live = Rid.Tbl.length t.dir in
    let saturated = Bloom.count t.bloom > 2 * Bloom.expected t.bloom in
    let too_stale = t.bloom_stale * 8 > max 1024 live in
    let small = List.length dirty_rids * 8 <= live in
    if small && (not saturated) && not too_stale then begin
      List.iter
        (fun rid ->
          let key = Rid.to_int rid in
          if Rid.Tbl.mem t.dir rid && not (Bloom.maybe_mem t.bloom key) then
            Bloom.add t.bloom key)
        dirty_rids;
      Metrics.incr t.bloom_incr_rebuilds
    end
    else rebuild_bloom t

  (* A checkpoint writes dirty pages back to the device before logging the
     state, like a real fuzzy-checkpoint flush. Recovery never reads data
     pages (it replays the WAL), but this keeps the device image current
     and makes page writes addressable I/O points. *)
  let before_checkpoint t = Buffer_pool.flush_all t.pool

  let crash t = Buffer_pool.drop_all t.pool
end

include Record_store.Make (Phys)

let create ?(settings = Settings.default) ?faults ?rid_base ?rid_stride ~mgr ~name () =
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let pager =
    Pager.create ~io_spin:settings.Settings.io_spin ~faults ~page_size:settings.page_size ()
  in
  let pool = Buffer_pool.create ~faults pager ~capacity:settings.pool_capacity in
  let phys = Phys.create pager pool in
  let t = create ~settings ?rid_base ?rid_stride ~faults ~mgr ~name phys in
  Metrics.attach (ops t).Store.metrics phys.Phys.metrics;
  t
