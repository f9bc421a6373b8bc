module Binc = Ode_util.Binc
module Metrics = Ode_util.Metrics

type op =
  | Insert of Rid.t * bytes
  | Update of Rid.t * bytes * bytes
  | Delete of Rid.t * bytes

type record =
  | Begin of int
  | Op of int * op
  | Commit of int
  | Abort of int
  | Checkpoint of (Rid.t * bytes) list
  | Commit_group of int list
  | Ckpt_delta of { seq : int; base : int; entries : (Rid.t * bytes option) list }

(* A sealed segment: an immutable slice of the global log. [seg_base] is
   its global byte offset — offsets are global and monotone forever, so
   replication ship cursors, quorum release offsets and the crash-sweep
   probe clock survive rotation and retirement unchanged. *)
type segment = { seg_base : int; seg_bytes : bytes }

type t = {
  active : Buffer.t;  (* the open segment *)
  mutable active_base : int;  (* global offset of the active segment's start *)
  mutable sealed : segment list;  (* retained sealed segments, newest first *)
  mutable retired_offset : int;  (* global offset where the retained log begins *)
  segment_bytes : int;  (* rotation threshold; 0 = single-segment (never roll) *)
  mutable pins : (string * (unit -> int)) list;
      (* retirement floors: each pin returns the lowest global offset its
         owner still needs; retirement never crosses the minimum. *)
  faults : Faults.t;
  flush_spin : int;
  flush_sleep : int;  (* blocking fsync latency in ns; 0 = none *)
  mutable tail : record list;  (* reversed *)
  mutable last_record_offset : int;  (* global start of the last flushed record *)
  metrics : Metrics.t;
  flushes : Metrics.counter;
  segments_sealed : Metrics.counter;
  segments_retired : Metrics.counter;
  retired_bytes : Metrics.counter;
  (* Decoded-durable-prefix cache: Crashlab probes call [durable_records]
     and [durable_bytes] once per I/O point, so re-copying and re-decoding
     the whole log each call is quadratic in log length. Flushes only ever
     append complete records, so the decode can resume where it left off.
     [decoded_upto] is a global offset; retirement resets the cache to the
     new retained start. *)
  mutable decoded_rev : record list;  (* retained records decoded so far, newest first *)
  mutable decoded_upto : int;  (* global offset consumed by [decoded_rev] *)
  mutable bytes_cache : bytes option;  (* copy of the retained log, while current *)
}

let durable_size t = t.active_base + Buffer.length t.active
let retained_size t = durable_size t - t.retired_offset

let create ?faults ~flush_spin ~flush_sleep ~segment_bytes () =
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let m = Metrics.create () in
  let t =
    {
      active = Buffer.create 4096;
      active_base = 0;
      sealed = [];
      retired_offset = 0;
      segment_bytes;
      pins = [];
      faults;
      flush_spin;
      flush_sleep;
      tail = [];
      last_record_offset = 0;
      metrics = m;
      flushes = Metrics.counter m "wal_flushes";
      segments_sealed = Metrics.counter m "segments_sealed";
      segments_retired = Metrics.counter m "segments_retired";
      retired_bytes = Metrics.counter m "wal_retired_bytes";
      decoded_rev = [];
      decoded_upto = 0;
      bytes_cache = None;
    }
  in
  Metrics.gauge m "wal_bytes" (fun () -> durable_size t);
  Metrics.gauge m "wal_footprint" (fun () -> retained_size t);
  t

let metrics t = t.metrics

let append t r = t.tail <- r :: t.tail

let encode_op w = function
  | Insert (rid, after) ->
      Binc.write_uvarint w 0;
      Binc.write_uvarint w (Rid.to_int rid);
      Binc.write_bytes w after
  | Update (rid, before, after) ->
      Binc.write_uvarint w 1;
      Binc.write_uvarint w (Rid.to_int rid);
      Binc.write_bytes w before;
      Binc.write_bytes w after
  | Delete (rid, before) ->
      Binc.write_uvarint w 2;
      Binc.write_uvarint w (Rid.to_int rid);
      Binc.write_bytes w before

let encode_record w = function
  | Begin txn ->
      Binc.write_uvarint w 0;
      Binc.write_uvarint w txn
  | Op (txn, op) ->
      Binc.write_uvarint w 1;
      Binc.write_uvarint w txn;
      encode_op w op
  | Commit txn ->
      Binc.write_uvarint w 2;
      Binc.write_uvarint w txn
  | Abort txn ->
      Binc.write_uvarint w 3;
      Binc.write_uvarint w txn
  | Checkpoint entries ->
      Binc.write_uvarint w 4;
      let entry (rid, bytes) =
        Binc.write_uvarint w (Rid.to_int rid);
        Binc.write_bytes w bytes
      in
      Binc.write_list w entry entries
  | Commit_group txns ->
      Binc.write_uvarint w 5;
      Binc.write_list w (Binc.write_uvarint w) txns
  | Ckpt_delta { seq; base; entries } ->
      Binc.write_uvarint w 6;
      Binc.write_uvarint w seq;
      Binc.write_uvarint w base;
      let entry (rid, payload) =
        Binc.write_uvarint w (Rid.to_int rid);
        match payload with
        | Some bytes ->
            Binc.write_bool w true;
            Binc.write_bytes w bytes
        | None -> Binc.write_bool w false
      in
      Binc.write_list w entry entries

let decode_op r =
  match Binc.read_uvarint r with
  | 0 ->
      let rid = Rid.of_int (Binc.read_uvarint r) in
      Insert (rid, Binc.read_bytes r)
  | 1 ->
      let rid = Rid.of_int (Binc.read_uvarint r) in
      let before = Binc.read_bytes r in
      let after = Binc.read_bytes r in
      Update (rid, before, after)
  | 2 ->
      let rid = Rid.of_int (Binc.read_uvarint r) in
      Delete (rid, Binc.read_bytes r)
  | n -> raise (Binc.Corrupt (Printf.sprintf "bad op tag %d" n))

let decode_record r =
  match Binc.read_uvarint r with
  | 0 -> Begin (Binc.read_uvarint r)
  | 1 ->
      let txn = Binc.read_uvarint r in
      Op (txn, decode_op r)
  | 2 -> Commit (Binc.read_uvarint r)
  | 3 -> Abort (Binc.read_uvarint r)
  | 4 ->
      let entry () =
        let rid = Rid.of_int (Binc.read_uvarint r) in
        let bytes = Binc.read_bytes r in
        (rid, bytes)
      in
      Checkpoint (Binc.read_list r entry)
  | 5 -> Commit_group (Binc.read_list r (fun () -> Binc.read_uvarint r))
  | 6 ->
      let seq = Binc.read_uvarint r in
      let base = Binc.read_uvarint r in
      let entry () =
        let rid = Rid.of_int (Binc.read_uvarint r) in
        let payload = if Binc.read_bool r then Some (Binc.read_bytes r) else None in
        (rid, payload)
      in
      Ckpt_delta { seq; base; entries = Binc.read_list r entry }
  | n -> raise (Binc.Corrupt (Printf.sprintf "bad record tag %d" n))

let decode_records bytes =
  let r = Binc.reader bytes in
  let rec go acc =
    if Binc.at_end r then List.rev acc
    else begin
      match decode_record r with
      | rec_ -> go (rec_ :: acc)
      | exception Binc.Corrupt _ -> List.rev acc
    end
  in
  go []

(* Simulated fsync latency, same shape as [Pager.spin]. *)
let spin t =
  let acc = ref 0 in
  for i = 1 to t.flush_spin do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc);
  (* Unlike the CPU spin, a sleeping log force releases the processor —
     concurrent shards ([Ode_parallel]) overlap their forces exactly as
     independent WAL devices would, even on a single core. *)
  if t.flush_sleep > 0 then Unix.sleepf (float_of_int t.flush_sleep *. 1e-9)

(* Seal the active segment once it crosses the rotation threshold.
   Rotation happens only at flush boundaries, so every segment starts
   and ends on a record boundary — a retained suffix of segments is
   always a decodable log. *)
let maybe_rotate t =
  if t.segment_bytes > 0 && Buffer.length t.active >= t.segment_bytes then begin
    t.sealed <- { seg_base = t.active_base; seg_bytes = Buffer.to_bytes t.active } :: t.sealed;
    t.active_base <- t.active_base + Buffer.length t.active;
    Buffer.clear t.active;
    Metrics.incr t.segments_sealed
  end

let flush t =
  let pending = List.rev t.tail in
  if pending <> [] then begin
    let w = Ode_util.Binc.writer () in
    let last = ref 0 in
    List.iter (fun r -> last := Binc.length w; encode_record w r) pending;
    let bytes = Binc.contents w in
    (match Faults.check t.faults Faults.Wal_flush with
    | `Proceed ->
        spin t;
        t.last_record_offset <- durable_size t + !last;
        Buffer.add_bytes t.active bytes;
        t.bytes_cache <- None;
        maybe_rotate t
    | `Torn f ->
        (* fsync died mid-write: a byte prefix of this flush — typically
           ending mid-record — reaches the durable log, then the crash. *)
        let keep = int_of_float (f *. float_of_int (Bytes.length bytes)) in
        let keep = max 0 (min (Bytes.length bytes) keep) in
        Buffer.add_subbytes t.active bytes 0 keep;
        t.bytes_cache <- None;
        Faults.torn_crash t.faults Faults.Wal_flush);
    t.tail <- []
  end;
  Metrics.incr t.flushes

let retired_offset t = t.retired_offset
let last_record_offset t = t.last_record_offset

let durable_bytes t =
  match t.bytes_cache with
  | Some bytes when Bytes.length bytes = retained_size t -> bytes
  | _ ->
      let buf = Buffer.create (max 64 (retained_size t)) in
      List.iter (fun seg -> Buffer.add_bytes buf seg.seg_bytes) (List.rev t.sealed);
      Buffer.add_buffer buf t.active;
      let bytes = Buffer.to_bytes buf in
      t.bytes_cache <- Some bytes;
      bytes

let durable_records t =
  if t.decoded_upto < durable_size t then begin
    (* Resume the decode on the newly flushed suffix only. A torn flush can
       leave a truncated trailing record; it is never followed by more bytes
       (the plane is crashed), so stopping at [Corrupt] is permanent. *)
    let bytes = durable_bytes t in
    let r = Binc.reader ~pos:(t.decoded_upto - t.retired_offset) bytes in
    let rec go () =
      if not (Binc.at_end r) then begin
        match decode_record r with
        | rec_ ->
            t.decoded_rev <- rec_ :: t.decoded_rev;
            t.decoded_upto <- t.retired_offset + Binc.pos r;
            go ()
        | exception Binc.Corrupt _ -> ()
      end
    in
    go ()
  end;
  List.rev t.decoded_rev

let all_records t = durable_records t @ List.rev t.tail

let read_range t ~pos ~len =
  if pos < t.retired_offset then
    invalid_arg
      (Printf.sprintf "Wal.read_range: offset %d is retired (retained log starts at %d)" pos
         t.retired_offset);
  if pos + len > durable_size t then invalid_arg "Wal.read_range: beyond the durable prefix";
  Bytes.sub (durable_bytes t) (pos - t.retired_offset) len

let add_pin t ~name floor = t.pins <- (name, floor) :: List.remove_assoc name t.pins
let remove_pin t ~name = t.pins <- List.remove_assoc name t.pins

let retire_below t ~offset =
  (* Never retire past a pin: replication shippers and promotable
     replicas publish the lowest global offset they still need, and a
     segment they need must survive until they advance. *)
  let floor = List.fold_left (fun acc (_name, f) -> min acc (f ())) offset t.pins in
  let gone, kept =
    List.partition (fun seg -> seg.seg_base + Bytes.length seg.seg_bytes <= floor) t.sealed
  in
  if gone <> [] then begin
    t.sealed <- kept;
    List.iter
      (fun seg ->
        Metrics.incr t.segments_retired;
        Metrics.add t.retired_bytes (Bytes.length seg.seg_bytes);
        t.retired_offset <- max t.retired_offset (seg.seg_base + Bytes.length seg.seg_bytes))
      gone;
    (* The decode caches cover bytes that no longer exist; restart them
       at the new retained origin (a record boundary by construction). *)
    t.bytes_cache <- None;
    t.decoded_rev <- [];
    t.decoded_upto <- t.retired_offset
  end

let segment_count t = List.length t.sealed + 1

let pp_record fmt = function
  | Begin txn -> Format.fprintf fmt "BEGIN t%d" txn
  | Op (txn, Insert (rid, _)) -> Format.fprintf fmt "t%d INSERT %a" txn Rid.pp rid
  | Op (txn, Update (rid, _, _)) -> Format.fprintf fmt "t%d UPDATE %a" txn Rid.pp rid
  | Op (txn, Delete (rid, _)) -> Format.fprintf fmt "t%d DELETE %a" txn Rid.pp rid
  | Commit txn -> Format.fprintf fmt "COMMIT t%d" txn
  | Abort txn -> Format.fprintf fmt "ABORT t%d" txn
  | Checkpoint entries -> Format.fprintf fmt "CHECKPOINT (%d records)" (List.length entries)
  | Commit_group txns ->
      Format.fprintf fmt "COMMIT-GROUP [%s]" (String.concat ";" (List.map string_of_int txns))
  | Ckpt_delta { seq; base; entries } ->
      Format.fprintf fmt "CKPT-DELTA seq=%d base=%d (%d entries)" seq base (List.length entries)
