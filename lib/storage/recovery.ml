(* Last marker wins: a Commit that reached the log buffer but whose flush
   failed is followed by an Abort once the store rolls the transaction
   back, and both may become durable on a later flush. Replaying such a
   transaction as committed would diverge from the pre-crash store. *)
let committed_txns records =
  let committed = Hashtbl.create 32 in
  List.iter
    (fun record ->
      match record with
      | Wal.Commit txn -> Hashtbl.replace committed txn ()
      | Wal.Commit_group txns -> List.iter (fun txn -> Hashtbl.replace committed txn ()) txns
      | Wal.Abort txn -> Hashtbl.remove committed txn
      | _ -> ())
    records;
  committed

(* Records after the last complete commit boundary: the trailing run of
   Begin/Op records belonging to work no durable marker ever resolved.
   Abort counts as a boundary — truncating a durable Abort would
   resurrect the transaction it cancelled (last-marker-wins above). *)
let truncated_tail records =
  let tail = ref 0 in
  List.iter
    (fun record ->
      match record with
      | Wal.Commit _ | Wal.Commit_group _ | Wal.Checkpoint _ | Wal.Abort _ | Wal.Ckpt_delta _ ->
          tail := 0
      | Wal.Begin _ | Wal.Op _ -> incr tail)
    records;
  !tail

(* Single forward fold. A full [Checkpoint] resets the map to its
   entries (everything earlier is superseded); a [Ckpt_delta] overlays
   only the records dirtied since the previous checkpoint, [None]
   meaning delete — deltas never reset, so state accumulated since the
   full anchor (directly applied ops or earlier deltas) survives.
   Committed ops apply as they are met; ops below a full checkpoint are
   folded then discarded by its reset, which makes the fold equivalent
   to the classic split-at-checkpoint replay while bounding the work a
   recovery does to the retained log (retirement drops everything below
   the last full anchor). Checkpoints are taken at quiescent points, so
   no transaction's ops straddle one. *)
let committed_state records =
  let committed = committed_txns records in
  let state = ref (Rid.Tbl.create 256) in
  let apply = function
    | Wal.Checkpoint entries ->
        (* A full anchor replaces the map wholesale; building the
           replacement pre-sized skips the doubling rehashes a
           million-entry anchor would otherwise pay. *)
        let tbl = Rid.Tbl.create (max 256 (2 * List.length entries)) in
        List.iter (fun (rid, payload) -> Rid.Tbl.replace tbl rid payload) entries;
        state := tbl
    | Wal.Ckpt_delta { entries; _ } ->
        List.iter
          (fun (rid, payload) ->
            match payload with
            | Some payload -> Rid.Tbl.replace !state rid payload
            | None -> Rid.Tbl.remove !state rid)
          entries
    | Wal.Op (txn, op) when Hashtbl.mem committed txn -> begin
        match op with
        | Wal.Insert (rid, payload) | Wal.Update (rid, _, payload) ->
            Rid.Tbl.replace !state rid payload
        | Wal.Delete (rid, _) -> Rid.Tbl.remove !state rid
      end
    | Wal.Op _ | Wal.Begin _ | Wal.Commit _ | Wal.Commit_group _ | Wal.Abort _ -> ()
  in
  List.iter apply records;
  let entries = Rid.Tbl.fold (fun rid payload acc -> (rid, payload) :: acc) !state [] in
  List.sort (fun (a, _) (b, _) -> Rid.compare a b) entries

(* Both stores recover the same way: decode the durable log, fold it to
   the committed state, load that into a fresh store and anchor on it. *)
let rebuild ~create ~load_bulk ~anchor_from wal_bytes =
  let state = committed_state (Wal.decode_records wal_bytes) in
  let store = create () in
  load_bulk store state;
  anchor_from store state;
  store

let recover_disk ?settings ?faults ?rid_base ?rid_stride ~mgr ~name ~wal_bytes () =
  rebuild ~load_bulk:Disk_store.load_bulk ~anchor_from:Disk_store.anchor_from wal_bytes
    ~create:(Disk_store.create ?settings ?faults ?rid_base ?rid_stride ~mgr ~name)

let recover_mem ?settings ?rid_base ?rid_stride ~mgr ~name ~wal_bytes () =
  rebuild ~load_bulk:Mem_store.load_bulk ~anchor_from:Mem_store.anchor_from wal_bytes
    ~create:(Mem_store.create ?settings ?rid_base ?rid_stride ~mgr ~name)
