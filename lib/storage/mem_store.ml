(* A plain hash table: no pages, no pool, no membership filter (the
   table is its own O(1) probe, so every read takes the S-lock path). *)
module Phys = struct
  type t = bytes Rid.Tbl.t

  let find = Rid.Tbl.find_opt
  let put = Rid.Tbl.replace
  let remove = Rid.Tbl.remove
  let mem = Rid.Tbl.mem
  let count = Rid.Tbl.length
  let iter t f = Rid.Tbl.iter (fun rid _ -> f rid) t
  let maybe_mem _ _ = true
  let note_negative _ = ()
  let note_false_positive _ = ()
  let presize _ _ = ()
  let after_insert _ = ()
  let on_full_anchor _ ~dirty_rids:_ = ()
  let before_checkpoint _ = ()
  let crash = Rid.Tbl.reset
end

include Record_store.Make (Phys)

(* The fault plane is private and never armed: the store performs no
   simulated I/O, and one plane shared with the WAL keeps lock
   acquisition on the same code path as the disk store's. *)
let create ?(settings = Settings.default) ?rid_base ?rid_stride ~mgr ~name () =
  create ~settings ?rid_base ?rid_stride ~faults:(Faults.create ()) ~mgr ~name
    (Rid.Tbl.create 256)
