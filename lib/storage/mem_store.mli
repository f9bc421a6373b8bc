(** Dali-like main-memory record store: the {!Record_store} logical layer
    over a hash table.

    There is no pager or buffer pool, so the read path is a single probe
    — the point of MM-Ode. Durability and transaction semantics are the
    disk store's, because the logical layer is the same code: the same
    WAL format, the same per-transaction undo, the same strict 2PL record
    locking, so the two backends are interchangeable behind {!Store.t}
    (experiment T7 measures the difference). *)

include Record_store.S

val create :
  ?settings:Settings.t -> ?rid_base:int -> ?rid_stride:int -> mgr:Txn.mgr -> name:string -> unit -> t
(** Parameters as in {!Disk_store.create}; the page, pool and [io_spin]
    settings are ignored. There is no [faults]: the
    store's fault plane is private and never armed. There is no bloom
    filter either: the record table is its own O(1) membership probe. *)
