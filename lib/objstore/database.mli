(** A database of persistent objects over one record store.

    Provides the O++ persistent-object primitives: [pnew]/[pdelete],
    dereference (read), field update, and iteration over {e clusters} (the
    per-class extents O++ programs iterate with [for ... in]). Cluster
    membership is cached in memory and kept transactionally consistent: a
    database registers as a transaction participant and undoes membership
    changes of aborted transactions; [open_existing] rebuilds the cache by
    scanning the store.

    {b Object cursor.} A locking transaction keeps the record bytes of
    each object it touches: the first access reads under an S lock, and
    later reads and writes use the kept bytes. A write takes the X lock
    at once; commit-prepare writes each changed object back with one
    store update (one logged change per object), and an abort just drops
    the cursor. [pnew] and [pdelete] go to the store at once. Snapshot
    transactions bypass the cursor. A transaction's cursor serves one
    database: reaching a second database over the same manager with it
    raises [Invalid_argument]. *)

type t

exception No_such_object of Oid.t

val create : mgr:Ode_storage.Txn.mgr -> store:Ode_storage.Store.t -> name:string -> t

val open_existing :
  mgr:Ode_storage.Txn.mgr -> store:Ode_storage.Store.t -> name:string -> t
(** Rebuild cluster membership from the store's committed contents (used
    after recovery) through one lock-free snapshot scan. *)

val name : t -> string
val store : t -> Ode_storage.Store.t
val mgr : t -> Ode_storage.Txn.mgr

val pnew : t -> Ode_storage.Txn.t -> Objrec.t -> Oid.t
(** Allocate a persistent object; returns its oid. *)

val pdelete : t -> Ode_storage.Txn.t -> Oid.t -> unit
(** Raises {!No_such_object} if absent. *)

val get : t -> Ode_storage.Txn.t -> Oid.t -> Objrec.t
(** Dereference through the cursor. Raises {!No_such_object}. *)

val get_opt : t -> Ode_storage.Txn.t -> Oid.t -> Objrec.t option

val payload : t -> Ode_storage.Txn.t -> Oid.t -> committed:bool -> bytes
(** The object's stored record bytes ({!Objrec.encode}'s layout), for
    reading fields in place with {!Objrec.field_of_payload}. With
    [~committed:false] this is a dereference through the cursor. With
    [~committed:true] it is the lock-free read-committed variant: the
    object's newest committed version, with no S lock taken, or the
    cursor's bytes if this transaction has touched the object. Certified
    snapshot-safe trigger cascades ({!Ode_trigger.Runtime}) read this
    way. Raises {!No_such_object}. *)

val put : t -> Ode_storage.Txn.t -> Oid.t -> Objrec.t -> unit
(** Replace the object (exclusive lock; written back at commit-prepare).
    The class may not change. *)

val get_field : t -> Ode_storage.Txn.t -> Oid.t -> string -> Value.t
(** Decodes only the field, from the cursor's bytes. *)

val set_field : t -> Ode_storage.Txn.t -> Oid.t -> string -> Value.t -> unit
(** Splices the new value's encoding into the cursor's bytes
    ({!Objrec.with_field}); nothing else is decoded. *)

val class_of : t -> Ode_storage.Txn.t -> Oid.t -> string
(** Dynamic class name of the object. *)

val exists : t -> Ode_storage.Txn.t -> Oid.t -> bool

val cluster : t -> cls:string -> Oid.t list
(** Current members of the class's cluster, sorted by oid. Objects of
    derived classes belong to their own cluster only; use the schema layer
    to fold over a class and its descendants. *)

val iter_cluster : t -> Ode_storage.Txn.t -> cls:string -> (Oid.t -> bytes -> unit) -> unit
(** Each live member with its record bytes as this transaction sees them
    (see {!payload}); the scan does not grow the cursor. *)

val object_count : t -> int

(** {2 Field indexes}

    Ordered secondary indexes over one field of one class's cluster,
    backed by the in-memory B+-tree ({!Btree}) — the disk-Ode release kept
    B-trees in its storage manager (§5.6). Like cluster membership, index
    contents are a volatile cache kept transactionally consistent (updates
    journal per transaction and reverse on abort) and must be re-created
    after recovery. Index reads take no locks; read the objects themselves
    for serializable access. *)

val create_index : t -> Ode_storage.Txn.t -> name:string -> cls:string -> field:string -> unit
(** Build an index over the current cluster contents (reads the objects
    under shared locks) and maintain it henceforth. Raises
    [Invalid_argument] if the name is taken. *)

val drop_index : t -> name:string -> unit

val index_lookup : t -> name:string -> Value.t -> Oid.t list
(** Oids whose indexed field currently equals the key, sorted. Raises
    [Not_found] for an unknown index. *)

val index_range :
  t -> name:string -> ?lo:Value.t -> ?hi:Value.t -> unit -> (Value.t * Oid.t list) list
(** Ascending by key, bounds inclusive. *)

val index_names : t -> string list
