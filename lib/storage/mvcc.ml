module Metrics = Ode_util.Metrics

type t = {
  chains : (int * bytes option) list Rid.Tbl.t;  (* newest first *)
  pending : unit Rid.Tbl.t;
      (* rids whose chains may still hold prunable history (multi-version
         chains and lone tombstones). Pruning walks only these, so a GC
         pass costs O(recently-written records), not O(all records) — at
         million-object scale a full-table sweep every
         [auto_prune_interval] installs would dominate update cost. *)
  metrics : Metrics.t;
  installed : Metrics.counter;
  pruned : Metrics.counter;
  snapshot_reads : Metrics.counter;
  s_locks_avoided : Metrics.counter;
  mutable since_prune : int;  (* installs since the last prune *)
  mutable sorted : Rid.t list option;  (* chain rids ascending; None = stale *)
}

let own_read_ts = -1

let auto_prune_interval = 256

let create () =
  let m = Metrics.create () in
  let t =
    {
      chains = Rid.Tbl.create 256;
      pending = Rid.Tbl.create 256;
      metrics = m;
      snapshot_reads = Metrics.counter m "snapshot_reads";
      s_locks_avoided = Metrics.counter m "s_locks_avoided";
      installed = Metrics.counter m "versions_installed";
      pruned = Metrics.counter m "versions_pruned";
      since_prune = 0;
      sorted = None;
    }
  in
  Metrics.peak m "max_chain_len" (fun () ->
      Rid.Tbl.fold (fun _ chain acc -> max acc (List.length chain)) t.chains 0);
  Metrics.gauge m "chains" (fun () -> Rid.Tbl.length t.chains);
  t

let metrics t = t.metrics

(* Recovery bulk load: a fresh singleton non-tombstone chain is settled
   (nothing to prune until a later install supersedes it), so skipping the
   pending-set registration keeps the first post-recovery prune from
   sweeping every loaded record. The entries arrive in rid order, which
   spares recovery's snapshot scans a sort. *)
let load t ~ts entries =
  List.iter (fun (rid, payload) -> Rid.Tbl.replace t.chains rid [ (ts, Some payload) ]) entries;
  Metrics.add t.installed (List.length entries);
  t.sorted <- Some (List.map fst entries)

let install t ~ts rid payload =
  let chain = match Rid.Tbl.find_opt t.chains rid with Some c -> c | None -> t.sorted <- None; [] in
  Rid.Tbl.replace t.chains rid ((ts, payload) :: chain);
  Rid.Tbl.replace t.pending rid ();
  Metrics.incr t.installed;
  t.since_prune <- t.since_prune + 1

let latest t rid =
  match Rid.Tbl.find_opt t.chains rid with
  | Some (version :: _) -> version
  | Some [] | None -> (0, None)

let read_at t ~ts rid =
  match Rid.Tbl.find_opt t.chains rid with
  | None -> None
  | Some chain ->
      let rec visible = function
        | [] -> None
        | (vts, payload) :: older -> if vts <= ts then payload else visible older
      in
      visible chain

let iter_at t ~ts f =
  if Option.is_none t.sorted then
    t.sorted <- Some (List.sort Rid.compare (Rid.Tbl.fold (fun rid _ acc -> rid :: acc) t.chains []));
  List.iter
    (fun rid -> match read_at t ~ts rid with Some payload -> f rid payload | None -> ())
    (Option.get t.sorted)

(* Keep versions above the watermark plus the single newest one at or
   below it (the version every snapshot >= watermark resolves to). A
   chain whose surviving tail is one tombstone is dead history: drop it. *)
let prune t ~watermark =
  t.since_prune <- 0;
  let doomed = ref [] in
  (* rids with nothing left to prune at any future watermark: a single
     non-tombstone version can never be dropped (only superseded), so it
     leaves the pending set until the next install re-adds it. *)
  let settled = ref [] in
  Rid.Tbl.iter
    (fun rid () ->
      match Rid.Tbl.find_opt t.chains rid with
      | None -> settled := rid :: !settled
      | Some chain -> begin
          let rec keep = function
            | [] -> []
            | ((vts, _) as v) :: older ->
                if vts > watermark then v :: keep older
                else begin
                  Metrics.add t.pruned (List.length older);
                  [ v ]
                end
          in
          let kept = keep chain in
          match kept with
          | [ (vts, None) ] when vts <= watermark ->
              Metrics.incr t.pruned;
              doomed := rid :: !doomed;
              settled := rid :: !settled
          | [ (_, Some _) ] ->
              settled := rid :: !settled;
              if kept != chain then Rid.Tbl.replace t.chains rid kept
          | kept -> if kept != chain then Rid.Tbl.replace t.chains rid kept
        end)
    t.pending;
  List.iter (fun rid -> Rid.Tbl.remove t.chains rid) !doomed;
  if !doomed <> [] then t.sorted <- None;
  List.iter (fun rid -> Rid.Tbl.remove t.pending rid) !settled

let maybe_prune t ~watermark = if t.since_prune >= auto_prune_interval then prune t ~watermark

let clear t =
  Rid.Tbl.reset t.chains;
  Rid.Tbl.reset t.pending;
  t.since_prune <- 0;
  t.sorted <- None

let note_snapshot_read t =
  Metrics.incr t.snapshot_reads;
  Metrics.incr t.s_locks_avoided
