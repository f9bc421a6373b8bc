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
  pending : (int, change list) Hashtbl.t;  (* txn -> changes, newest first *)
}

exception No_such_object of Oid.t

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

let note_change t (txn : Txn.t) change =
  apply_change t change;
  let existing = Option.value (Hashtbl.find_opt t.pending txn.Txn.id) ~default:[] in
  Hashtbl.replace t.pending txn.Txn.id (change :: existing)

let on_commit t (txn : Txn.t) = Hashtbl.remove t.pending txn.Txn.id

let on_abort t (txn : Txn.t) =
  match Hashtbl.find_opt t.pending txn.Txn.id with
  | None -> ()
  | Some changes ->
      List.iter (fun change -> apply_change t (reverse_change change)) changes;
      Hashtbl.remove t.pending txn.Txn.id

let create ~mgr ~store ~name =
  let t =
    {
      name;
      store;
      mgr;
      clusters = Hashtbl.create 16;
      indexes = Hashtbl.create 8;
      pending = Hashtbl.create 8;
    }
  in
  Txn.register_participant mgr
    {
      Txn.p_name = "db:" ^ name;
      p_prepare = (fun _ -> ());
      on_commit = on_commit t;
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

(* The lock-free read-committed variant (certified snapshot-safe trigger
   cascades) reads the newest committed version, or the in-place state
   when [txn] already holds the record's lock, and takes no S lock. *)
let payload t txn oid ~committed =
  let rid = Oid.to_rid oid in
  let read =
    if committed then snd (t.store.Store.read_committed txn rid) else t.store.Store.read txn rid
  in
  match read with Some payload -> payload | None -> raise (No_such_object oid)

let get_opt t txn oid = Option.map Objrec.decode (t.store.Store.read txn (Oid.to_rid oid))

let get t txn oid = Objrec.decode (payload t txn oid ~committed:false)

let pdelete t txn oid =
  let current = payload t txn oid ~committed:false in
  let cls = Objrec.cls_of_payload current in
  t.store.Store.delete txn (Oid.to_rid oid);
  note_change t txn (Removed (cls, oid));
  List.iter
    (fun ix -> note_change t txn (Ix_removed (ix, Objrec.field_of_payload current ix.ix_field, oid)))
    (indexes_for t cls)

(* Replace [current]'s bytes by [updated] and move the object in the
   indexes whose key changed. *)
let write_back t txn oid ~cls ~current updated ~key =
  t.store.Store.update txn (Oid.to_rid oid) updated;
  List.iter
    (fun ix ->
      let old_key = Objrec.field_of_payload current ix.ix_field in
      let new_key = key ix.ix_field in
      if not (Value.equal old_key new_key) then begin
        note_change t txn (Ix_removed (ix, old_key, oid));
        note_change t txn (Ix_added (ix, new_key, oid))
      end)
    (indexes_for t cls)

let put t txn oid record =
  let current = payload t txn oid ~committed:false in
  let cls = Objrec.cls_of_payload current in
  if not (String.equal cls record.Objrec.cls) then
    invalid_arg
      (Printf.sprintf "Database.put: class change %s -> %s for %s" cls record.Objrec.cls
         (Oid.to_string oid));
  write_back t txn oid ~cls ~current (Objrec.encode record) ~key:(Objrec.get record)

let get_field t txn oid field = Objrec.field_of_payload (payload t txn oid ~committed:false) field

let set_field t txn oid field v =
  let current = payload t txn oid ~committed:false in
  let updated = Objrec.with_field current field v in
  write_back t txn oid ~cls:(Objrec.cls_of_payload current) ~current updated
    ~key:(Objrec.field_of_payload updated)

let class_of t txn oid = Objrec.cls_of_payload (payload t txn oid ~committed:false)

let exists t txn oid = Option.is_some (t.store.Store.read txn (Oid.to_rid oid))

let cluster t ~cls =
  match Hashtbl.find_opt t.clusters cls with
  | None -> []
  | Some r -> Oid.Set.elements !r

let iter_cluster t txn ~cls f =
  List.iter
    (fun oid ->
      match t.store.Store.read txn (Oid.to_rid oid) with Some payload -> f oid payload | None -> ())
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
