exception Would_block of { txn : int; key : Lock_manager.key; holders : int list }

exception Write_conflict of { txn : int; key : Lock_manager.key }

type t = {
  name : string;
  insert : Txn.t -> bytes -> Rid.t;
  read : Txn.t -> Rid.t -> bytes option;
  update : Txn.t -> Rid.t -> bytes -> unit;
  lock_write : Txn.t -> Rid.t -> unit;
  delete : Txn.t -> Rid.t -> unit;
  iter : Txn.t -> (Rid.t -> bytes -> unit) -> unit;
  read_committed : Txn.t -> Rid.t -> int * bytes option;
  version_ts : Rid.t -> int;
  prune_versions : unit -> unit;
  record_count : unit -> int;
  maybe_present : Rid.t -> bool;
      (* capacity probe: bloom (then directory) membership — no lock, no
         page read. [false] is authoritative; [true] means the rid has a
         live directory entry. *)
  in_flight : unit -> int;
      (* transactions with uncommitted writes in this store (undo entries);
         a checkpoint needs this to be 0. *)
  checkpoint : unit -> unit;
  metrics : Ode_util.Metrics.t;
  crash : unit -> unit;
  wal : Wal.t;
  pipeline : Commit_pipeline.t;
}

exception Store_error of string

let lock_or_raise (txn : Txn.t) key mode =
  Txn.check_active txn;
  match Lock_manager.acquire (Txn.lock_mgr txn.mgr) ~txn:txn.id key mode with
  | Lock_manager.Granted -> ()
  | Lock_manager.Blocked holders -> raise (Would_block { txn = txn.id; key; holders })
