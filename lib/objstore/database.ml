module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Rid = Ode_storage.Rid

module Value_btree = Btree.Make (struct
  type t = Value.t

  let compare = Value.compare
  let pp = Value.pp
end)

type index = {
  ix_cls : string;
  ix_field : string;
  ix_tree : Oid.Set.t Value_btree.t;
}

type change =
  | Added of string * Oid.t
  | Removed of string * Oid.t
  | Ix_added of index * Value.t * Oid.t
  | Ix_removed of index * Value.t * Oid.t

type t = {
  name : string;
  store : Store.t;
  mgr : Txn.mgr;
  clusters : (string, Oid.Set.t ref) Hashtbl.t;
  indexes : (string, index) Hashtbl.t;
}

exception No_such_object of Oid.t

(* The object cursor of one locking transaction, held on the transaction
   (see the interface): each object it has touched, newest first, with
   the record bytes as the transaction sees them, and the cluster and
   index changes an abort reverses. A chain scan finds a slot and a
   dirty-list scan tells whether it is dirty: no table, no per-slot
   flag. Both scans are linear in the objects the transaction touched
   (docs/PERF.md "Object cursor" measures them). *)
type slot = { s_oid : Oid.t; mutable s_bytes : bytes option (* None once deleted *); s_next : slot }

let rec no_slot = { s_oid = Oid.of_int (-1); s_bytes = None; s_next = no_slot }

type cursor = {
  c_db : t;
  mutable c_slots : slot;
  mutable c_dirty : slot list;  (* X-locked, written back at commit-prepare *)
  mutable c_changes : change list;  (* newest first *)
}

type Txn.cursor += Cursor of cursor

(* No slot of [oid] is on the chain when [scan] returns [no_slot]. *)
let rec scan oid s = if s == no_slot || Oid.equal s.s_oid oid then s else scan oid s.s_next

(* [txn]'s cursor, made on first use. A manager's transactions serve one
   database: a cursor of another is refused. *)
let cursor t (txn : Txn.t) =
  match txn.Txn.cursor with
  | Cursor c when c.c_db == t -> c
  | Cursor c ->
      invalid_arg
        (Printf.sprintf "Database %s: transaction %d already has a cursor on database %s" t.name
           txn.Txn.id c.c_db.name)
  | _ ->
      let c = { c_db = t; c_slots = no_slot; c_dirty = []; c_changes = [] } in
      Txn.set_cursor txn (Cursor c);
      c

(* The slot of an object [txn] has touched, or [no_slot]. *)
let peek t (txn : Txn.t) oid =
  match txn.Txn.cursor with Txn.No_cursor -> no_slot | _ -> scan oid (cursor t txn).c_slots

(* The object's slot, read under its S lock on first access. An absent
   object gets none: a read the bloom filter answered took no lock. *)
let slot t txn oid =
  let c = cursor t txn in
  let s = scan oid c.c_slots in
  if s != no_slot then s
  else
    match t.store.Store.read txn (Oid.to_rid oid) with
    | None -> raise (No_such_object oid)
    | bytes ->
        let s = { s_oid = oid; s_bytes = bytes; s_next = c.c_slots } in
        c.c_slots <- s;
        s

let bytes_of s = match s.s_bytes with Some bytes -> bytes | None -> raise (No_such_object s.s_oid)

(* Commit-prepare: one update per live dirty slot, while the transaction
   still holds its X locks. *)
let write_back t (txn : Txn.t) =
  match txn.Txn.cursor with
  | Cursor c when c.c_db == t ->
      List.iter
        (fun s -> Option.iter (t.store.Store.update txn (Oid.to_rid s.s_oid)) s.s_bytes)
        c.c_dirty
  | _ -> ()

let name t = t.name
let store t = t.store
let mgr t = t.mgr

let cluster_ref t cls =
  match Hashtbl.find_opt t.clusters cls with
  | Some r -> r
  | None ->
      let r = ref Oid.Set.empty in
      Hashtbl.replace t.clusters cls r;
      r

let tree_add tree key oid =
  let current = Option.value (Value_btree.find tree key) ~default:Oid.Set.empty in
  Value_btree.insert tree key (Oid.Set.add oid current)

let tree_remove tree key oid =
  match Value_btree.find tree key with
  | None -> ()
  | Some set ->
      let set = Oid.Set.remove oid set in
      if Oid.Set.is_empty set then ignore (Value_btree.remove tree key)
      else Value_btree.insert tree key set

let apply_change t change =
  match change with
  | Added (cls, oid) ->
      let r = cluster_ref t cls in
      r := Oid.Set.add oid !r
  | Removed (cls, oid) ->
      let r = cluster_ref t cls in
      r := Oid.Set.remove oid !r
  | Ix_added (ix, key, oid) -> tree_add ix.ix_tree key oid
  | Ix_removed (ix, key, oid) -> tree_remove ix.ix_tree key oid

let reverse_change = function
  | Added (cls, oid) -> Removed (cls, oid)
  | Removed (cls, oid) -> Added (cls, oid)
  | Ix_added (ix, key, oid) -> Ix_removed (ix, key, oid)
  | Ix_removed (ix, key, oid) -> Ix_added (ix, key, oid)

let note_change t txn change =
  apply_change t change;
  let c = cursor t txn in
  c.c_changes <- change :: c.c_changes

let on_abort t (txn : Txn.t) =
  match txn.Txn.cursor with
  | Cursor c when c.c_db == t ->
      List.iter (fun change -> apply_change t (reverse_change change)) c.c_changes
  | _ -> ()

let create ~mgr ~store ~name =
  let t = { name; store; mgr; clusters = Hashtbl.create 16; indexes = Hashtbl.create 8 } in
  Txn.register_participant mgr
    {
      Txn.p_name = "db:" ^ name;
      p_prepare = write_back t;
      on_commit = ignore;
      on_abort = on_abort t;
    };
  t

let open_existing ~mgr ~store ~name =
  let t = create ~mgr ~store ~name in
  let txn = Txn.begin_txn ~system:true ~snapshot:true mgr in
  store.Store.iter txn (fun rid payload ->
      let r = cluster_ref t (Objrec.cls_of_payload payload) in
      r := Oid.Set.add (Oid.of_rid rid) !r);
  Txn.commit txn;
  t

let indexes_for t cls =
  Hashtbl.fold (fun _ ix acc -> if String.equal ix.ix_cls cls then ix :: acc else acc) t.indexes []

let pnew t txn record =
  let rid = t.store.Store.insert txn (Objrec.encode record) in
  let oid = Oid.of_rid rid in
  note_change t txn (Added (record.Objrec.cls, oid));
  List.iter
    (fun ix -> note_change t txn (Ix_added (ix, Objrec.get record ix.ix_field, oid)))
    (indexes_for t record.Objrec.cls);
  oid

(* Snapshot transactions bypass the cursor. The lock-free read-committed
   variant reads the newest committed version, unless [txn] has touched
   the object: its slot holds the bytes it must see. *)
let payload t txn oid ~committed =
  let read =
    if Txn.is_snapshot txn then t.store.Store.read txn (Oid.to_rid oid)
    else if committed then
      let s = peek t txn oid in
      if s != no_slot then s.s_bytes else snd (t.store.Store.read_committed txn (Oid.to_rid oid))
    else (slot t txn oid).s_bytes
  in
  match read with Some payload -> payload | None -> raise (No_such_object oid)

let get_opt t txn oid =
  try Some (Objrec.decode (payload t txn oid ~committed:false)) with No_such_object _ -> None

let get t txn oid = Objrec.decode (payload t txn oid ~committed:false)

(* A deleted slot may stay on the dirty list; commit-prepare skips it. *)
let pdelete t txn oid =
  let s = slot t txn oid in
  let current = bytes_of s in
  let cls = Objrec.cls_of_payload current in
  t.store.Store.delete txn (Oid.to_rid oid);
  s.s_bytes <- None;
  note_change t txn (Removed (cls, oid));
  List.iter
    (fun ix -> note_change t txn (Ix_removed (ix, Objrec.field_of_payload current ix.ix_field, oid)))
    (indexes_for t cls)

(* Stage [updated] in the slot under the record's X lock, taken by the
   first write, and move the object in the indexes whose key changed. *)
let write t txn s ~cls ~current updated ~key =
  let c = cursor t txn in
  if not (List.memq s c.c_dirty) then begin
    t.store.Store.lock_write txn (Oid.to_rid s.s_oid);
    c.c_dirty <- s :: c.c_dirty
  end;
  s.s_bytes <- Some updated;
  List.iter
    (fun ix ->
      let old_key = Objrec.field_of_payload current ix.ix_field in
      let new_key = key ix.ix_field in
      if not (Value.equal old_key new_key) then begin
        note_change t txn (Ix_removed (ix, old_key, s.s_oid));
        note_change t txn (Ix_added (ix, new_key, s.s_oid))
      end)
    (indexes_for t cls)

let put t txn oid record =
  let s = slot t txn oid in
  let current = bytes_of s in
  let cls = Objrec.cls_of_payload current in
  if not (String.equal cls record.Objrec.cls) then
    invalid_arg
      (Printf.sprintf "Database.put: class change %s -> %s for %s" cls record.Objrec.cls
         (Oid.to_string oid));
  write t txn s ~cls ~current (Objrec.encode record) ~key:(Objrec.get record)

let get_field t txn oid field = Objrec.field_of_payload (payload t txn oid ~committed:false) field

let set_field t txn oid field v =
  let s = slot t txn oid in
  let current = bytes_of s in
  let updated = Objrec.with_field current field v in
  write t txn s ~cls:(Objrec.cls_of_payload current) ~current updated
    ~key:(Objrec.field_of_payload updated)

let class_of t txn oid = Objrec.cls_of_payload (payload t txn oid ~committed:false)

let exists t txn oid =
  try ignore (payload t txn oid ~committed:false); true with No_such_object _ -> false

let cluster t ~cls =
  match Hashtbl.find_opt t.clusters cls with
  | None -> []
  | Some r -> Oid.Set.elements !r

(* A scan sees the cursor's bytes but does not grow the cursor. *)
let iter_cluster t txn ~cls f =
  List.iter
    (fun oid ->
      let s = peek t txn oid in
      Option.iter (f oid)
        (if s != no_slot then s.s_bytes else t.store.Store.read txn (Oid.to_rid oid)))
    (cluster t ~cls)

let object_count t = t.store.Store.record_count ()

(* ------------------------------------------------------------------ *)
(* Field indexes. *)

let create_index t txn ~name ~cls ~field =
  if Hashtbl.mem t.indexes name then invalid_arg ("Database.create_index: duplicate " ^ name);
  let ix = { ix_cls = cls; ix_field = field; ix_tree = Value_btree.create () } in
  iter_cluster t txn ~cls (fun oid payload ->
      tree_add ix.ix_tree (Objrec.field_of_payload payload field) oid);
  Hashtbl.replace t.indexes name ix

let drop_index t ~name = Hashtbl.remove t.indexes name

let find_index t name =
  match Hashtbl.find_opt t.indexes name with Some ix -> ix | None -> raise Not_found

let index_lookup t ~name key =
  let ix = find_index t name in
  match Value_btree.find ix.ix_tree key with
  | None -> []
  | Some set -> Oid.Set.elements set

let index_range t ~name ?lo ?hi () =
  let ix = find_index t name in
  let acc = ref [] in
  Value_btree.range ix.ix_tree ?lo ?hi (fun key set -> acc := (key, Oid.Set.elements set) :: !acc);
  List.rev !acc

let index_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.indexes [] |> List.sort String.compare
