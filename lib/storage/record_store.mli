(** The logical record-store layer, written once over a physical record map.

    The paper runs one object manager over two storage managers — EOS on
    disk, Dali for MM-Ode — and only the physical record map differs
    between them. {!Make} holds everything else exactly once: record
    locking (through the store's {!Faults} plane, so lock acquisition is
    an addressable I/O point), the logical WAL and per-transaction undo,
    the commit pipeline, MVCC version install and prune, the dirty-rid
    set and the full/delta checkpoint chain, rid striding, recovery's
    [load_bulk]/[anchor_from] and the op counters. {!Mem_store} and
    {!Disk_store} are its two instances. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Store.Store_error} with a formatted message. *)

(** What differs between the stores: a rid-keyed record map plus the
    hooks the disk store's bloom filter and buffer pool need. *)
module type PHYS = sig
  type t

  val find : t -> Rid.t -> bytes option
  val put : t -> Rid.t -> bytes -> unit
  (** Insert the rid, or replace its payload if present. *)

  val remove : t -> Rid.t -> unit
  val mem : t -> Rid.t -> bool
  val count : t -> int
  val iter : t -> (Rid.t -> unit) -> unit

  val maybe_mem : t -> Rid.t -> bool
  (** [false] means the rid was definitely never put: reads answer it
      without a lock or a map probe. A map with no filter answers [true]. *)

  val note_negative : t -> unit
  (** A lookup was answered by [maybe_mem = false]. *)

  val note_false_positive : t -> unit
  (** [maybe_mem] said maybe, the map said absent. *)

  val presize : t -> int -> unit
  (** About to bulk-load this many records into the empty map. *)

  val after_insert : t -> unit
  (** A transactional insert was logged. *)

  val on_full_anchor : t -> dirty_rids:Rid.t list -> unit
  (** A full checkpoint anchor is durable; [dirty_rids] are the rids
      committed since the previous checkpoint. *)

  val before_checkpoint : t -> unit
  (** Runs before a checkpoint or anchor record is built. *)

  val crash : t -> unit
  (** Drop the volatile physical state. *)
end

(** What both stores export besides [create]. *)
module type S = sig
  type t

  val ops : t -> Store.t
  (** The uniform interface used by everything above the storage layer. *)

  val load_bulk : t -> (Rid.t * bytes) list -> unit
  (** Physically install records (sorted by rid), bypassing transactions,
      locking and logging. Recovery-only; raises [Store_error] if the
      store is not empty. *)

  val anchor_from : t -> (Rid.t * bytes) list -> unit
  (** Write a full anchor checkpoint whose payload is [entries] verbatim
      (sorted by rid). Recovery pairs this with {!load_bulk} — the entries
      are the state just loaded, so logging them directly skips the
      per-record re-read a regular full checkpoint performs. *)

  val crash : t -> unit
  (** Simulate a crash: the volatile state is lost and the store refuses
      further use. The WAL's durable prefix survives; retrieve it with
      [(ops t).wal]. *)
end

module Make (P : PHYS) : sig
  include S

  val create :
    settings:Settings.t ->
    ?rid_base:int ->
    ?rid_stride:int ->
    faults:Faults.t ->
    mgr:Txn.mgr ->
    name:string ->
    P.t ->
    t
  (** A store over an empty physical map, registered as a commit/abort
      participant with [mgr]. [faults] is shared by the store's WAL and
      its lock points. Parameters as in {!Disk_store.create}. *)
end
