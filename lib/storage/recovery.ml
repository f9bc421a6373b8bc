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

(* Single forward fold. A full [Checkpoint] becomes the base state as
   written (ascending rid order, as this function returns it and
   recovery's anchor logs it) and empties the overlay; [Ckpt_delta]
   entries ([None] meaning delete) and committed ops go into the overlay
   as they are met, and a merge applies it to the base. Ops below a full
   checkpoint are discarded with the overlay it empties, so the fold
   equals the classic split-at-checkpoint replay while its work stays
   bounded by the retained log. Checkpoints are taken at quiescent
   points, so no transaction's ops straddle one. A store-sized table
   would make a remembered-set entry per record, whose promotion OCaml 5
   shares with every domain, idle ones included. *)
let committed_state records =
  let committed = committed_txns records in
  let base = ref [] and overlay = Rid.Tbl.create 256 in
  let apply = function
    | Wal.Checkpoint entries ->
        base := entries;
        Rid.Tbl.reset overlay
    | Wal.Ckpt_delta { entries; _ } ->
        List.iter (fun (rid, change) -> Rid.Tbl.replace overlay rid change) entries
    | Wal.Op (txn, op) when Hashtbl.mem committed txn -> begin
        match op with
        | Wal.Insert (rid, payload) | Wal.Update (rid, _, payload) ->
            Rid.Tbl.replace overlay rid (Some payload)
        | Wal.Delete (rid, _) -> Rid.Tbl.replace overlay rid None
      end
    | Wal.Op _ | Wal.Begin _ | Wal.Commit _ | Wal.Commit_group _ | Wal.Abort _ -> ()
  in
  List.iter apply records;
  let add rid change acc = match change with Some payload -> (rid, payload) :: acc | None -> acc in
  let rec merge acc base changes =
    match (base, changes) with
    | _, [] -> List.rev_append acc base
    | [], (rid, change) :: changes -> merge (add rid change acc) [] changes
    | ((rid, _) as entry) :: base', (rid', change) :: changes' ->
        let c = Rid.compare rid rid' in
        if c < 0 then merge (entry :: acc) base' changes
        else merge (add rid' change acc) (if c = 0 then base' else base) changes'
  in
  Rid.Tbl.fold (fun rid change acc -> (rid, change) :: acc) overlay []
  |> List.sort (fun (a, _) (b, _) -> Rid.compare a b)
  |> merge [] !base

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
