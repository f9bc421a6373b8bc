(** Write-ahead log.

    The log is the durability authority for both stores: a record is durable
    iff it sits in the flushed prefix of the log. Log records describe
    logical operations (insert/update/delete with before-images), plus
    transaction begin/commit/abort markers and checkpoints — full-state
    anchors and incremental deltas. Recovery ({!Recovery}) rebuilds the
    committed record map from the last full checkpoint, the delta chain
    above it, and the committed suffix — a two-pass redo-only scheme in the
    style of main-memory managers such as Dali.

    The log body is a real byte sequence produced with {!Ode_util.Binc}; a
    simulated crash simply truncates the log to its flushed length, so the
    decoder is exercised by every recovery test.

    {2 Segments}

    The log is physically a sequence of {e segments}: one open (active)
    segment plus zero or more sealed ones. With a [segment_bytes]
    threshold the active segment is sealed at the first flush boundary
    past the threshold and a new one opened; sealed segments wholly
    below a full checkpoint can then be {e retired} (dropped) by
    {!retire_below}, bounding the disk footprint. All offsets
    ({!durable_size}, replication ship cursors, quorum release offsets)
    are {e global} — monotone over the whole log history — so rotation
    and retirement are invisible to offset-based consumers. Retirement
    respects {e pins} ({!add_pin}): a replication shipper or promotable
    replica publishes the lowest offset it still needs and no segment
    above the minimum pin is ever dropped. *)

type op =
  | Insert of Rid.t * bytes
  | Update of Rid.t * bytes * bytes  (** rid, before-image, after-image *)
  | Delete of Rid.t * bytes  (** rid, before-image *)

type record =
  | Begin of int
  | Op of int * op  (** owning transaction id, operation *)
  | Commit of int
  | Abort of int
  | Checkpoint of (Rid.t * bytes) list
      (** full committed state at a quiescent point — the recovery anchor *)
  | Commit_group of int list
      (** group commit ({!Commit_pipeline}): one record commits a whole
          batch of transactions. Because the decoder only keeps complete
          records of a durable byte prefix, a torn flush drops or keeps the
          batch as a unit — batch atomicity is structural, not a recovery
          special case. *)
  | Ckpt_delta of { seq : int; base : int; entries : (Rid.t * bytes option) list }
      (** incremental checkpoint manifest at a quiescent point: only the
          records dirtied since the previous checkpoint, [None] marking a
          delete. [seq] is the checkpoint sequence number, [base] the seq
          of the full {!Checkpoint} anchor this delta chains back to.
          Recovery folds deltas over the anchor in log order. *)

type t

val create :
  ?faults:Faults.t -> flush_spin:int -> flush_sleep:int -> segment_bytes:int -> unit -> t
(** [faults] is the fault-injection plane consulted on every non-empty
    {!flush} (default: a fresh inert plane). A [Fail] there models a
    failed fsync (the tail stays buffered); a [Torn] appends only a byte
    prefix of the flush — usually ending mid-record — and then crashes.
    The other three come from the store's {!Settings.t}.
    [flush_spin] simulates log-force latency: each successful non-empty
    flush busy-loops that many iterations, the WAL's analogue
    of {!Pager.create}'s [io_spin] — how the benchmarks give fsync a
    realistic cost. [flush_sleep] (nanoseconds, 0 = none) is the
    {e blocking} variant: the flush sleeps instead of spinning, releasing
    the processor, so concurrent shards ({!Ode_parallel}) overlap their
    log forces like independent WAL devices even on one core.
    [segment_bytes] (0 = never) seals the active segment at the
    first flush boundary at or past that many bytes, enabling
    {!retire_below}. *)

val append : t -> record -> unit
(** Buffer a record; it is not durable until {!flush}. *)

val flush : t -> unit
(** Force the buffered tail to the durable prefix (simulates fsync). *)

val durable_bytes : t -> bytes
(** The {e retained} flushed prefix, as raw bytes — what a crash would
    preserve. After retirement this starts at {!retired_offset} (always a
    record boundary) rather than global offset 0; it is a valid log whose
    first checkpoint anchor supersedes everything retired. The returned
    value is cached and shared between calls until the next flush or
    retirement; callers must treat it as immutable. *)

val durable_records : t -> record list
(** Decode of {!durable_bytes}. Incrementally cached: only bytes flushed
    since the previous call are decoded. *)

val all_records : t -> record list
(** Retained durable and still-buffered records, in append order. *)

val metrics : t -> Ode_util.Metrics.t
(** Counters [wal_flushes] ({!flush} calls: the fsync count),
    [segments_sealed], [segments_retired], [wal_retired_bytes]; gauges
    [wal_bytes] ({!durable_size}) and [wal_footprint] ({!retained_size}). *)

val durable_size : t -> int
(** {e Global} end offset of the durable prefix — monotone over the whole
    log history, unaffected by retirement. *)

val last_record_offset : t -> int
(** Global offset where the last record of the latest successful
    non-empty {!flush} starts: that record ends at {!durable_size}. *)

val retained_size : t -> int
(** Bytes currently held: [durable_size - retired_offset]. The live WAL
    disk footprint. *)

val retired_offset : t -> int
(** Global offset where the retained log begins (0 until retirement). *)

val read_range : t -> pos:int -> len:int -> bytes
(** [read_range t ~pos ~len] extracts a durable byte range by {e global}
    offset (for replication shipping). Raises [Invalid_argument] if the
    range dips below {!retired_offset} — pins exist precisely so that a
    shipper never observes this — or past the durable end. *)

val add_pin : t -> name:string -> (unit -> int) -> unit
(** [add_pin t ~name floor] registers a retirement floor: whenever
    retirement is attempted, [floor ()] is consulted and no byte at or
    above the minimum of all pins (and the caller's bound) is dropped.
    Re-registering [name] replaces the previous pin. *)

val remove_pin : t -> name:string -> unit

val retire_below : t -> offset:int -> unit
(** Drop sealed segments lying wholly below [min offset (min over pins)].
    Called by the stores after a full checkpoint with the checkpoint
    record's global offset: everything below the anchor is re-derivable
    from it. The active segment is never retired. *)

val segment_count : t -> int
(** Retained segments, counting the active one. *)

val encode_record : Ode_util.Binc.writer -> record -> unit
val decode_records : bytes -> record list
(** Decodes as many complete records as the byte prefix contains; a
    truncated trailing record is ignored (torn-write semantics). *)

val decode_record : Ode_util.Binc.reader -> record
(** One record at the reader's position. Raises [Binc.Corrupt] on a
    truncated or malformed record (the reader position is then
    undefined). Lets a replication replica decode a shipped log
    incrementally: remember [Binc.pos] after each complete record and
    spill the undecoded suffix until the next chunk arrives. *)

val pp_record : Format.formatter -> record -> unit
