module Txn = Ode_storage.Txn
module Store = Ode_storage.Store
module Lock_manager = Ode_storage.Lock_manager
module Disk_store = Ode_storage.Disk_store
module Mem_store = Ode_storage.Mem_store
module Recovery = Ode_storage.Recovery
module Wal = Ode_storage.Wal
module Faults = Ode_storage.Faults
module Commit_pipeline = Ode_storage.Commit_pipeline
module Settings = Ode_storage.Settings
module Metrics = Ode_util.Metrics
module Oid = Ode_objstore.Oid
module Value = Ode_objstore.Value
module Objrec = Ode_objstore.Objrec
module Database = Ode_objstore.Database
module Intern = Ode_event.Intern
module Ast = Ode_event.Ast
module Parser = Ode_event.Parser
module Compile = Ode_event.Compile
module Fsm = Ode_event.Fsm
module Coupling = Ode_trigger.Coupling
module Analyze = Ode_analysis.Analyze
module Concur = Ode_analysis.Concur
module Footprint = Ode_analysis.Footprint
module Diagnostic = Ode_analysis.Diagnostic
module Trigger_def = Ode_trigger.Trigger_def
module Trigger_state = Ode_trigger.Trigger_state
module Runtime = Ode_trigger.Runtime

exception Aborted

exception Ode_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Ode_error msg)) fmt

type store_kind = [ `Disk | `Mem ]

type settings = {
  kind : store_kind;
  storage : Settings.t;
  engine : Runtime.config;
  shard : int * int;
}

type monitor = {
  m_fsm : Ode_event.Fsm.t;
  m_masks : (vobj -> bool) array;  (* by mask id *)
  m_action : vobj -> unit;
  m_once : bool;
  mutable m_state : int;
  mutable m_active : bool;
}

and vobj = {
  v_cls : string;
  mutable v_fields : (string * Value.t) list;
  mutable v_monitors : monitor list;  (* newest first *)
}

type obj_handle = Persistent of Oid.t | Volatile of vobj

type t = {
  settings : settings;
  faults : Faults.t;
  mgr : Txn.mgr;
  obj_store : Store.t;
  trig_store : Store.t;
  db : Database.t;
  rt : Runtime.t;
  intern : Intern.t;
  metrics : Metrics.t;
  classes : (string, class_entry) Hashtbl.t;
  posting_plans : (string * string, int list * int list) Hashtbl.t;
      (* (dynamic class, method) -> before ids, after ids *)
  mutable validation : validation option;
      (* lock-footprint soundness checker (see enable_validation) *)
  mutable ckpt_pending : bool;
      (* a checkpoint was requested (explicitly or by the auto policy)
         while transactions were in flight; taken at the next quiescent
         transaction boundary (see maybe_capacity_work) *)
  mutable ckpt_deadline : int option;
      (* remaining transaction boundaries before a deferred checkpoint
         must have run; None = wait indefinitely *)
}

and validation = {
  v_table : (string * string, Footprint.t) Hashtbl.t;
      (* (defining class, trigger) -> static cascade footprint *)
  mutable v_violations : string list;  (* reversed *)
  mutable v_frames : int;  (* firings validated *)
}

and method_ctx = {
  env : t;
  txn : Txn.t option;
  self : obj_handle;
  get : string -> Value.t;
  set : string -> Value.t -> unit;
  invoke_self : string -> Value.t list -> Value.t;
  post_self : string -> unit;
}

and method_impl = method_ctx -> Value.t list -> Value.t

and class_entry = {
  c_name : string;
  c_ancestors : string list;  (* the class and its ancestors, in resolution order *)
  c_own_fields : (string * Value.t) list;
  c_all_fields : (string * Value.t) list;
  c_methods : (string * method_impl) list;
  c_event_decls : Intern.basic list;
  c_constraints : string list;  (* own constraint-trigger names *)
}

type mask_impl = t -> Trigger_def.ctx -> bool
type action_impl = t -> Trigger_def.ctx -> unit

type trigger_spec = {
  tr_name : string;
  tr_params : string list;
  tr_event : string;
  tr_perpetual : bool;
  tr_coupling : Coupling.t;
  tr_action : action_impl;
  tr_posts : string list;
  tr_reads : string list;
  tr_writes : string list;
  tr_pure : bool;
}

let settings t = t.settings
let faults t = t.faults
let stores t = (t.obj_store, t.trig_store)
let runtime t = t.rt
let database t = t.db
let mgr t = t.mgr
let intern t = t.intern

(* ------------------------------------------------------------------ *)
(* Construction. *)

(* One builder for a fresh environment ([wals = None]) and a recovered
   one (both stores rebuilt from a crash image's durable WAL prefixes).
   One fault plane is shared by both stores: every page write, WAL
   flush, eviction and lock acquisition across the whole environment
   gets a single global I/O-point number, so a fault plan addresses any
   of them. [shard] = (index, count): the object store only mints rids
   ≡ index (mod count), so [oid mod count] names an object's home shard
   — the {!Ode_parallel} partitioning rule. The trigger store's rids are
   shard-local (never routed), so it stays unstrided. *)
let build ?faults settings wals =
  let mgr = Txn.create_mgr () in
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let storage = settings.storage in
  let store ?rid_base ?rid_stride name wal_bytes =
    match (settings.kind, wal_bytes) with
    | `Disk, None ->
        Disk_store.ops
          (Disk_store.create ~settings:storage ~faults ?rid_base ?rid_stride ~mgr ~name ())
    | `Disk, Some wal_bytes ->
        Disk_store.ops
          (Recovery.recover_disk ~settings:storage ~faults ?rid_base ?rid_stride ~mgr ~name
             ~wal_bytes ())
    | `Mem, None ->
        Mem_store.ops (Mem_store.create ~settings:storage ?rid_base ?rid_stride ~mgr ~name ())
    | `Mem, Some wal_bytes ->
        Mem_store.ops
          (Recovery.recover_mem ~settings:storage ?rid_base ?rid_stride ~mgr ~name ~wal_bytes ())
  in
  let rid_base, rid_stride = settings.shard in
  let obj_store = store ~rid_base ~rid_stride "objects" (Option.map fst wals) in
  let trig_store = store "triggers" (Option.map snd wals) in
  let db =
    match wals with
    | None -> Database.create ~mgr ~store:obj_store ~name:"main"
    | Some _ -> Database.open_existing ~mgr ~store:obj_store ~name:"main"
  in
  let intern = Intern.create () in
  let rt = Runtime.create ~config:settings.engine ~mgr ~intern ~store:trig_store () in
  let metrics = Metrics.create () in
  List.iter
    (fun (prefix, child) -> Metrics.attach metrics ~prefix child)
    [
      ("objects", obj_store.Store.metrics);
      ("triggers", trig_store.Store.metrics);
      ("locks", Lock_manager.metrics (Txn.lock_mgr mgr));
      ("txn", Txn.metrics mgr);
      ("rt", Runtime.metrics rt);
      ("intern", Intern.metrics intern);
    ];
  {
    settings;
    faults;
    mgr;
    obj_store;
    trig_store;
    db;
    rt;
    intern;
    metrics;
    classes = Hashtbl.create 32;
    posting_plans = Hashtbl.create 64;
    validation = None;
    ckpt_pending = false;
    ckpt_deadline = None;
  }

let create ?(store = `Mem) ?page_size ?pool_capacity ?io_spin ?flush_spin ?flush_sleep
    ?durability ?faults ?(shard = (0, 1)) ?(engine = Runtime.default_config)
    ?wal_segment_bytes ?ckpt_full_every ?auto_checkpoint_bytes () =
  let d = Settings.default in
  let pick v default = Option.value v ~default in
  let storage =
    {
      Settings.page_size = pick page_size d.page_size;
      pool_capacity = pick pool_capacity d.pool_capacity;
      io_spin = pick io_spin d.io_spin;
      flush_spin = pick flush_spin d.flush_spin;
      flush_sleep = pick flush_sleep d.flush_sleep;
      durability = pick durability d.durability;
      wal_segment_bytes = pick wal_segment_bytes d.wal_segment_bytes;
      ckpt_full_every = pick ckpt_full_every d.ckpt_full_every;
      auto_checkpoint_bytes = pick auto_checkpoint_bytes d.auto_checkpoint_bytes;
    }
  in
  build ?faults { kind = store; storage; engine; shard } None

(* Drain both stores' group-commit pipelines: force any queued batches and
   resolve every deferred durability ack. Each pipeline is independent, so
   an injected fault in one must not strand the other's batch: both are
   attempted, then the first fault is re-raised. *)
let sync t =
  let first = ref None in
  List.iter
    (fun store ->
      try Commit_pipeline.flush store.Store.pipeline
      with Faults.Injected_fault _ as fault -> if !first = None then first := Some fault)
    [ t.obj_store; t.trig_store ];
  Option.iter raise !first

(* ------------------------------------------------------------------ *)
(* Class definition: the work the O++ compiler does per class. *)

let class_entry t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some entry -> entry
  | None -> fail "unknown class %s" cls

let ancestors t cls = (class_entry t cls).c_ancestors

let merge_fields ~cls lists =
  let result = ref [] in
  let add (name, default) =
    match List.assoc_opt name !result with
    | None -> result := !result @ [ (name, default) ]
    | Some existing ->
        if not (Value.equal existing default) then
          fail "class %s inherits conflicting defaults for field %s" cls name
  in
  List.iter (List.iter add) lists;
  !result

let is_txn_event = function
  | Intern.Before_tcomplete | Intern.Before_tabort | Intern.After_tcommit -> true
  | Intern.Before _ | Intern.After _ | Intern.User _ -> false

(* Find the ancestor class that declared [basic] and return the interned
   id; events are interned under their declaring class so that base-class
   triggers see base-class event ids. *)
let declared_event_id t ~cls basic =
  let rec go = function
    | [] -> None
    | ancestor :: rest ->
        let entry = class_entry t ancestor in
        if List.exists (Intern.basic_equal basic) entry.c_event_decls then
          Some (Intern.id t.intern ~cls:ancestor basic)
        else go rest
  in
  go (ancestors t cls)

let user_event t ~cls ename =
  match declared_event_id t ~cls (Intern.User ename) with
  | Some id -> id
  | None -> fail "class %s does not declare user event %s" cls ename

(* Compile trigger source [text] for class [cls] over [alphabet]:
   unqualified events resolve against [cls], [Q.]-qualified ones against
   defined class [Q]; [masks] are the usable mask names, numbered by
   position. [what] prefixes error messages. *)
let compile_event t ~cls ~alphabet ~masks ~what text =
  let env =
    {
      Parser.resolve_event =
        (fun ?cls:qualifier basic ->
          match qualifier with
          | None -> declared_event_id t ~cls basic
          | Some q -> if Hashtbl.mem t.classes q then declared_event_id t ~cls:q basic else None);
      resolve_mask =
        (fun name ->
          List.find_map Fun.id
            (List.mapi
               (fun mask_id mask_name ->
                 if String.equal mask_name name then Some { Ast.mask_id; mask_name } else None)
               masks));
    }
  in
  match Compile.of_source env ~alphabet text with
  | Ok compiled -> compiled
  | Error msg -> fail "%s: %s" what msg

(* The declared [before f] twin of an [after f] event, if any ancestor of
   the interning class declares it: input to the analyzer's anchor-order
   heuristic (a posting plan emits [before f] strictly before [after f]). *)
let before_twin t event =
  match Intern.describe t.intern event with
  | Some (cls, Intern.After m) when Hashtbl.mem t.classes cls ->
      declared_event_id t ~cls (Intern.Before m)
  | _ -> None

(* Subtype oracle for the concur pass: two classes can describe the same
   objects iff one is an ancestor of the other. *)
let same_family t a b =
  let registry = Runtime.registry t.rt in
  String.equal a b
  || Trigger_def.Registry.is_subclass registry ~sub:a ~super:b
  || Trigger_def.Registry.is_subclass registry ~sub:b ~super:a

(* The whole-schema footprint table over the current registry — behind
   [odectl footprint] and the dynamic soundness checker. *)
let concur_report t =
  Analyze.concur_report ~same_family:(same_family t)
    ~event_name:(Intern.name_of_id t.intern)
    (Analyze.rules_of_registry (Runtime.registry t.rt))

(* Re-derive the set of Concur-certified snapshot-safe triggers and hand
   it to the runtime: their advances and cascades run on the lock-free
   MVCC read path. Refreshed after every [define_class] — a new class can
   both add rows and (via cross-class posts) decertify existing ones. *)
let refresh_snapshot_safe t =
  if (Runtime.config t.rt).Runtime.mvcc then
    Runtime.set_snapshot_safe t.rt
      (List.filter_map
         (fun row ->
           if row.Concur.row_snapshot_safe then Some (row.Concur.row_cls, row.Concur.row_name)
           else None)
         (concur_report t).Concur.rp_rows)

(* ------------------------------------------------------------------ *)
(* Lock-footprint validation mode: record each firing's observed lock
   set (Runtime frames) and assert it is covered by the static cascade
   footprint — the analyzer can never silently under-approximate. *)

let footprint_of_acc acc =
  List.fold_left
    (fun fp (kind, cls) ->
      let one =
        match kind with
        | Runtime.Trig_read -> Footprint.make ~trig_s:[ cls ] ()
        | Runtime.Trig_write -> Footprint.make ~trig_x:[ cls ] ()
        | Runtime.Obj_read -> Footprint.make ~obj_s:[ cls ] ()
        | Runtime.Obj_write -> Footprint.make ~obj_x:[ cls ] ()
      in
      Footprint.union fp one)
    Footprint.empty acc

let enable_validation t =
  (* The reference engine reads every candidate activation on every post
     (no relevance filtering), acquiring S locks the static footprint
     deliberately excludes — validation is defined over the default
     filtered engine. *)
  if not (Runtime.config t.rt).Runtime.filter then
    fail "enable_validation: requires the filtering engine (reference_config reads every candidate activation)";
  let v =
    match t.validation with
    | Some v -> v
    | None ->
        let v = { v_table = Hashtbl.create 64; v_violations = []; v_frames = 0 } in
        t.validation <- Some v;
        v
  in
  Hashtbl.reset v.v_table;
  List.iter
    (fun row ->
      Hashtbl.replace v.v_table (row.Concur.row_cls, row.Concur.row_name) row.Concur.row_cascade)
    (concur_report t).Concur.rp_rows;
  let registry = Runtime.registry t.rt in
  let sub ~sub:s ~super = Trigger_def.Registry.is_subclass registry ~sub:s ~super in
  Runtime.set_validator t.rt
    (Some
       (fun ~cls ~trigger ~acc ->
         v.v_frames <- v.v_frames + 1;
         (* Certified snapshot-safe firings must observe an empty S set:
            every read in the cascade went through the lock-free MVCC
            path, so any recorded shared access is a certification bug. *)
         if Runtime.snapshot_safe t.rt ~cls ~trigger then begin
           let shared =
             List.filter_map
               (fun (kind, k) ->
                 match kind with
                 | Runtime.Trig_read | Runtime.Obj_read -> Some k
                 | Runtime.Trig_write | Runtime.Obj_write -> None)
               acc
           in
           if shared <> [] then
             v.v_violations <-
               Printf.sprintf
                 "%s.%s: certified snapshot-safe but observed shared-lock reads: %s" cls trigger
                 (String.concat ", " (List.sort_uniq String.compare shared))
               :: v.v_violations
         end;
         match Hashtbl.find_opt v.v_table (cls, trigger) with
         | None ->
             v.v_violations <-
               Printf.sprintf "%s.%s: fired without a static footprint" cls trigger
               :: v.v_violations
         | Some static -> begin
             match Footprint.covered ~sub ~observed:(footprint_of_acc acc) ~static with
             | [] -> ()
             | uncovered ->
                 v.v_violations <-
                   Printf.sprintf "%s.%s: observed locks outside the static footprint: %s" cls
                     trigger (String.concat ", " uncovered)
                   :: v.v_violations
           end))

let disable_validation t =
  t.validation <- None;
  Runtime.set_validator t.rt None

let validation_violations t =
  match t.validation with None -> [] | Some v -> List.rev v.v_violations

let validation_frames t = match t.validation with None -> 0 | Some v -> v.v_frames

let define_class t ~name ?(parents = []) ?(fields = []) ?(methods = []) ?(events = [])
    ?(masks = []) ?(triggers = []) ?(constraints = []) ?(allow_lint_errors = false) () =
  if Hashtbl.mem t.classes name then fail "class %s is already defined" name;
  List.iter
    (fun parent -> if not (Hashtbl.mem t.classes parent) then fail "unknown parent class %s" parent)
    parents;
  let inherited_fields = List.map (fun p -> (class_entry t p).c_all_fields) parents in
  (* Depth-first, left-to-right linearisation with duplicates removed: the
     method/event resolution order. A parent's own linearisation, less the
     classes already listed, is exactly what the search visits below it. *)
  let linearisation =
    List.fold_left
      (fun acc cls -> if List.exists (String.equal cls) acc then acc else cls :: acc)
      []
      (name :: List.concat_map (ancestors t) parents)
    |> List.rev
  in
  let all_fields = merge_fields ~cls:name (inherited_fields @ [ fields ]) in
  (* Constraints (§8: "intra-object constraints as a special case of
     triggers") desugar to perpetual immediate triggers on [any] whose mask
     is the invariant's negation and whose action is [tabort]; they are
     auto-activated by [pnew]. *)
  let constraint_masks =
    List.map (fun (cname, pred) -> (cname, fun env ctx -> not (pred env ctx))) constraints
  in
  let constraint_triggers =
    List.map
      (fun (cname, _) ->
        {
          tr_name = cname;
          tr_params = [];
          tr_event = "any & " ^ cname;
          tr_perpetual = true;
          tr_coupling = Coupling.Immediate;
          tr_action = (fun _env _ctx -> raise Runtime.Tabort);
          tr_posts = [];
          tr_reads = [];
          tr_writes = [];
          tr_pure = true;
        })
      constraints
  in
  let masks = masks @ constraint_masks in
  let triggers = triggers @ constraint_triggers in
  let check_distinct what names =
    if List.length (List.sort_uniq String.compare names) <> List.length names then
      fail "class %s declares duplicate %s" name what
  in
  check_distinct "mask names" (List.map fst masks);
  check_distinct "trigger names" (List.map (fun spec -> spec.tr_name) triggers);
  check_distinct "method names" (List.map fst methods);
  check_distinct "field names" (List.map fst fields);
  check_distinct "event declarations" (List.map Intern.basic_to_string events);
  let entry =
    {
      c_name = name;
      c_ancestors = linearisation;
      c_own_fields = fields;
      c_all_fields = all_fields;
      c_methods = methods;
      c_event_decls = events;
      c_constraints = List.map fst constraints;
    }
  in
  Hashtbl.replace t.classes name entry;
  (* Intern own declared events under this class (the eventRep array). *)
  let own_ids = List.map (fun basic -> Intern.id t.intern ~cls:name basic) events in
  let parent_descriptors =
    List.map (fun p -> Trigger_def.Registry.find_exn (Runtime.registry t.rt) p) parents
  in
  let alphabet =
    List.sort_uniq Int.compare
      (own_ids @ List.concat_map (fun d -> d.Trigger_def.d_alphabet) parent_descriptors)
  in
  let txn_events =
    let own =
      List.filter_map
        (fun basic ->
          if is_txn_event basic then Some (basic, Intern.id t.intern ~cls:name basic) else None)
        events
    in
    let inherited = List.concat_map (fun d -> d.Trigger_def.d_txn_events) parent_descriptors in
    own @ inherited
  in
  let compile_trigger index spec =
    let anchored, expr, fsm =
      compile_event t ~cls:name ~alphabet ~masks:(List.map fst masks)
        ~what:(Printf.sprintf "class %s, trigger %s" name spec.tr_name)
        spec.tr_event
    in
    (* Resolve the [posts] clause: each entry is an event-declaration
       string ("after RaiseLimit", "BigBuy", optionally "Cls."-qualified)
       that must resolve against the declared alphabet, exactly like an
       event atom in a trigger expression. *)
    let resolve_post raw =
      let raw = String.trim raw in
      let qualifier, text =
        match String.index_opt raw '.' with
        | Some i ->
            ( Some (String.trim (String.sub raw 0 i)),
              String.sub raw (i + 1) (String.length raw - i - 1) )
        | None -> (None, raw)
      in
      let basic =
        match Intern.basic_of_string text with
        | Some basic -> basic
        | None ->
            fail "class %s, trigger %s: malformed posts declaration %S" name spec.tr_name raw
      in
      let cls =
        match qualifier with
        | None -> name
        | Some q ->
            if Hashtbl.mem t.classes q then q
            else
              fail "class %s, trigger %s: posts declaration %S names unknown class %s" name
                spec.tr_name raw q
      in
      match declared_event_id t ~cls basic with
      | Some id -> id
      | None ->
          fail "class %s, trigger %s: posts declaration %S does not match a declared event"
            name spec.tr_name raw
    in
    let posts = List.sort_uniq Int.compare (List.map resolve_post spec.tr_posts) in
    (* Effect declarations ([reads]/[writes]/[pure]) feed the concurrency
       analyzer. A class named in a clause must already be defined (or be
       this class); undeclared actions default to reads+writes of their own
       class — a safe over-approximation for intra-object actions. *)
    let resolve_effect what raw =
      let cls = String.trim raw in
      if String.equal cls name || Hashtbl.mem t.classes cls then cls
      else
        fail "class %s, trigger %s: %s declaration names unknown class %s" name spec.tr_name what
          cls
    in
    let reads, writes =
      if spec.tr_pure then begin
        if spec.tr_reads <> [] || spec.tr_writes <> [] then
          fail "class %s, trigger %s: pure excludes reads/writes declarations" name spec.tr_name;
        ([], [])
      end
      else if spec.tr_reads = [] && spec.tr_writes = [] then ([ name ], [ name ])
      else
        ( List.sort_uniq String.compare (List.map (resolve_effect "reads") spec.tr_reads),
          List.sort_uniq String.compare (List.map (resolve_effect "writes") spec.tr_writes) )
    in
    (* Mask ids are positional within this class definition. *)
    let mask_fns =
      List.map
        (fun (mask : Ast.mask) ->
          let impl = snd (List.nth masks mask.Ast.mask_id) in
          (mask.Ast.mask_id, fun ctx -> impl t ctx))
        (Ast.masks expr)
    in
    {
      Trigger_def.t_name = spec.tr_name;
      t_index = index;
      t_fsm = fsm;
      t_masks = mask_fns;
      t_action = (fun ctx -> spec.tr_action t ctx);
      t_perpetual = spec.tr_perpetual;
      t_coupling = spec.tr_coupling;
      t_params = spec.tr_params;
      t_expr = expr;
      t_anchored = anchored;
      t_source = spec.tr_event;
      t_posts = posts;
      t_reads = reads;
      t_writes = writes;
      t_pure = spec.tr_pure;
    }
  in
  let infos = Array.of_list (List.mapi compile_trigger triggers) in
  (* Define-time lint (the cheap passes: emptiness, termination): reject a
     class that introduces an error-level diagnostic — a dead trigger, or
     an immediate-coupling posting cycle — unless the caller opted out.
     The full analysis (vacuity, subsumption, blow-up) is available on
     demand via [lint]. *)
  (if not allow_lint_errors then begin
     let new_rules = List.map (Analyze.rule_of_info ~cls:name) (Array.to_list infos) in
     let registry_rules = Analyze.rules_of_registry (Runtime.registry t.rt) in
     (* Termination needs the whole rule graph, but only when some rule
        declares posts; emptiness of already-registered rules was checked
        when their classes were defined. *)
     let any_posts = List.exists (fun r -> r.Analyze.r_posts <> []) (registry_rules @ new_rules) in
     let rules = if any_posts then registry_rules @ new_rules else new_rules in
     let diags =
       Analyze.analyze
         ~config:{ Analyze.define_time_config with termination = any_posts }
         ~event_name:(Intern.name_of_id t.intern) ~before_twin:(before_twin t) rules
     in
     let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
     let mentions d =
       String.equal d.Diagnostic.d_span.Diagnostic.sp_class name
       || List.exists (has_prefix (name ^ ".")) d.Diagnostic.d_related
     in
     match
       List.filter (fun d -> d.Diagnostic.d_severity = Diagnostic.Error && mentions d) diags
     with
     | [] -> ()
     | errors ->
         Hashtbl.remove t.classes name;
         let msg =
           Format.asprintf "class %s rejected by trigger analysis:@\n%a" name
             (Format.pp_print_list (Diagnostic.pp ?file:None))
             errors
         in
         raise (Ode_error msg)
   end);
  Runtime.register_class t.rt
    {
      Trigger_def.d_cls = name;
      d_parents = parents;
      d_alphabet = alphabet;
      d_txn_events = txn_events;
      d_triggers = infos;
    };
  (* A new class changes the whole-schema footprint table: refresh the
     dynamic checker so already-installed validators see the new rows,
     and re-derive the certified snapshot-safe trigger set. *)
  if Option.is_some t.validation then enable_validation t;
  refresh_snapshot_safe t

(* Full analysis of every registered trigger (all five passes), for
   [odectl lint] and tests. *)
let lint ?config t =
  let rules = Analyze.rules_of_registry (Runtime.registry t.rt) in
  Analyze.analyze ?config ~event_name:(Intern.name_of_id t.intern) ~before_twin:(before_twin t)
    ~same_family:(same_family t) rules

(* ------------------------------------------------------------------ *)
(* Method resolution and event posting plans (§5.3). *)

let resolve_method t ~cls mname =
  let rec go = function
    | [] -> fail "class %s has no method %s" cls mname
    | ancestor :: rest -> begin
        match List.assoc_opt mname (class_entry t ancestor).c_methods with
        | Some impl -> impl
        | None -> go rest
      end
  in
  go (ancestors t cls)

(* before/after event ids to post around an invocation of [mname] on a
   dynamic instance of [cls]: every ancestor that declared interest
   contributes its own id. *)
let posting_plan t ~cls mname =
  match Hashtbl.find_opt t.posting_plans (cls, mname) with
  | Some plan -> plan
  | None ->
      let collect mk =
        List.filter_map
          (fun ancestor ->
            let entry = class_entry t ancestor in
            if List.exists (Intern.basic_equal (mk mname)) entry.c_event_decls then
              Some (Intern.id t.intern ~cls:ancestor (mk mname))
            else None)
          (ancestors t cls)
        |> List.sort_uniq Int.compare
      in
      let plan = (collect (fun m -> Intern.Before m), collect (fun m -> Intern.After m)) in
      Hashtbl.replace t.posting_plans (cls, mname) plan;
      plan

(* ------------------------------------------------------------------ *)
(* Persistent object operations. *)

(* The object's record bytes through the transaction's object cursor:
   inside a certified snapshot-safe firing an object the transaction has
   not touched is read with the lock-free read-committed variant — no S
   lock, and the (suppressed) read note keeps the observed S set empty. *)
let payload t txn oid =
  Database.payload t.db txn oid ~committed:(Runtime.lock_free_reads_active t.rt)

(* The S lock on the object's record, visible to validation frames (no-op
   and no lock on the lock-free path). *)
let note_read t payload =
  let cls = Objrec.cls_of_payload payload in
  Runtime.note_object_access t.rt ~cls ~write:false;
  cls

let class_of t txn oid = note_read t (payload t txn oid)

let pnew t txn ~cls ?(init = []) () =
  let entry = class_entry t cls in
  let fields =
    List.map
      (fun (name, default) ->
        match List.assoc_opt name init with Some v -> (name, v) | None -> (name, default))
      entry.c_all_fields
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name fields) then fail "class %s has no field %s" cls name)
    init;
  let oid = Database.pnew t.db txn (Objrec.make ~cls ~fields) in
  Runtime.note_object_access t.rt ~cls ~write:true;
  Runtime.note_access t.rt txn ~obj:oid ~cls;
  (* Auto-activate constraint triggers declared by the class and its
     bases. *)
  List.iter
    (fun ancestor ->
      List.iter
        (fun cname ->
          ignore
            (Runtime.activate t.rt txn ~defining_cls:ancestor ~trigger:cname ~obj:oid
               ~obj_cls:cls ~args:[]))
        (class_entry t ancestor).c_constraints)
    (ancestors t cls);
  oid

let pdelete t txn oid =
  (if Runtime.in_validation_frame t.rt then
     let cls = Database.class_of t.db txn oid in
     Runtime.note_object_access t.rt ~cls ~write:true);
  (* Dropping an object deactivates the triggers anchored at it; dangling
     TriggerStates would otherwise crash later postings and commits. *)
  Runtime.on_object_deleted t.rt txn oid;
  Database.pdelete t.db txn oid

let exists t txn oid = Database.exists t.db txn oid

let get_field t txn oid field =
  let payload = payload t txn oid in
  Runtime.note_access t.rt txn ~obj:oid ~cls:(note_read t payload);
  Objrec.field_of_payload payload field

let set_field t txn oid field v =
  let cls = class_of t txn oid in
  Runtime.note_access t.rt txn ~obj:oid ~cls;
  Runtime.note_object_access t.rt ~cls ~write:true;
  Database.set_field t.db txn oid field v

let post_event ?(args = []) t txn oid ename =
  let event = user_event t ~cls:(class_of t txn oid) ename in
  Runtime.post ~payload:args t.rt txn ~obj:oid ~event

(* Post by pre-interned global id — how {!Ode_parallel} applies a sealed
   cross-shard envelope: the origin shard resolved the name against its
   own class table, and the fleet's intern-snapshot check guarantees the
   id means the same event here. *)
let post_event_id ?(args = []) t txn oid ~event =
  ignore (class_of t txn oid);
  Runtime.post ~payload:args t.rt txn ~obj:oid ~event

(* Capacity fast path: consult the object store's membership probe
   (bloom filter then directory — no lock, no page read) and drop the
   posting silently when the target has no live record, the same
   semantics as {!Ode_parallel}'s envelope drop for dead targets. On a
   live target the posting still validates the class like
   [post_event_id] does, via [Runtime.post]'s record access. *)
let post_event_fast ?(args = []) t txn oid ~event =
  if t.obj_store.Store.maybe_present (Oid.to_rid oid) then begin
    ignore (class_of t txn oid);
    Runtime.post ~payload:args t.rt txn ~obj:oid ~event
  end

let user_event_id t txn oid ename = user_event t ~cls:(class_of t txn oid) ename

let rec invoke t txn oid mname args =
  let cls = class_of t txn oid in
  Runtime.note_access t.rt txn ~obj:oid ~cls;
  let impl = resolve_method t ~cls mname in
  let before_ids, after_ids = posting_plan t ~cls mname in
  let ctx = persistent_ctx t txn oid ~cls in
  (* §8 "attributes of events": the invocation's arguments travel with the
     before/after events, so masks can inspect them. *)
  List.iter (fun event -> Runtime.post ~payload:args t.rt txn ~obj:oid ~event) before_ids;
  let result = impl ctx args in
  List.iter (fun event -> Runtime.post ~payload:args t.rt txn ~obj:oid ~event) after_ids;
  result

and persistent_ctx t txn oid ~cls =
  {
    env = t;
    txn = Some txn;
    self = Persistent oid;
    get =
      (fun field ->
        Runtime.note_object_access t.rt ~cls ~write:false;
        Objrec.field_of_payload (payload t txn oid) field);
    set =
      (fun field v ->
        Runtime.note_object_access t.rt ~cls ~write:true;
        Database.set_field t.db txn oid field v);
    invoke_self = (fun mname args -> invoke t txn oid mname args);
    post_self = (fun ename -> post_event t txn oid ename);
  }

let cluster t ~cls = Database.cluster t.db ~cls

let iter_cluster t txn ~cls f = Database.iter_cluster t.db txn ~cls (fun oid _ -> f oid)

let create_index t txn ~name ~cls ~field =
  ignore (class_entry t cls);
  Database.create_index t.db txn ~name ~cls ~field

let index_lookup t ~name key = Database.index_lookup t.db ~name key

let index_range t ~name ?lo ?hi () = Database.index_range t.db ~name ?lo ?hi ()

(* ------------------------------------------------------------------ *)
(* Triggers. *)

let defining_class_of_trigger t ~cls trigger =
  let registry = Runtime.registry t.rt in
  let rec go = function
    | [] -> fail "class %s has no trigger %s" cls trigger
    | ancestor :: rest -> begin
        match Trigger_def.Registry.find_trigger registry ~cls:ancestor ~name:trigger with
        | Some _ -> ancestor
        | None -> go rest
      end
  in
  go (ancestors t cls)

let activate ?anchors t txn oid ~trigger ~args =
  let cls = class_of t txn oid in
  let defining_cls = defining_class_of_trigger t ~cls trigger in
  Runtime.activate ?anchors t.rt txn ~defining_cls ~trigger ~obj:oid ~obj_cls:cls ~args

let activate_local t txn oid ~trigger ~args =
  let cls = class_of t txn oid in
  let defining_cls = defining_class_of_trigger t ~cls trigger in
  Runtime.activate_local t.rt txn ~defining_cls ~trigger ~obj:oid ~obj_cls:cls ~args

let broadcast_event t txn ename =
  let classes = Hashtbl.fold (fun cls _ acc -> cls :: acc) t.classes [] in
  List.iter
    (fun cls ->
      match declared_event_id t ~cls (Intern.User ename) with
      | None -> ()
      | Some id ->
          List.iter
            (fun oid -> Runtime.post t.rt txn ~obj:oid ~event:id)
            (Database.cluster t.db ~cls))
    (List.sort String.compare classes)

let deactivate t txn id = Runtime.deactivate t.rt txn id

let active_triggers t txn oid = Runtime.active_on t.rt txn oid

let trigger_fsm t ~cls ~trigger =
  match Trigger_def.Registry.find_trigger (Runtime.registry t.rt) ~cls ~name:trigger with
  | Some info -> info.Trigger_def.t_fsm
  | None -> fail "class %s has no trigger %s" cls trigger

(* ------------------------------------------------------------------ *)
(* Capacity: checkpoint scheduling. *)

let quiescent t =
  t.obj_store.Store.in_flight () = 0 && t.trig_store.Store.in_flight () = 0

let checkpoint_now t =
  t.obj_store.Store.checkpoint ();
  t.trig_store.Store.checkpoint ()

let auto_checkpoint_due t =
  Commit_pipeline.auto_checkpoint_due t.obj_store.Store.pipeline
  || Commit_pipeline.auto_checkpoint_due t.trig_store.Store.pipeline

(* Transaction-boundary hook: a checkpoint requested while transactions
   held uncommitted writes (explicitly via [checkpoint], or by the
   [auto_checkpoint_bytes] WAL-growth policy) is taken at the first
   boundary where both stores are quiescent. Deterministic: the decision
   depends only on [in_flight], never on timing. *)
let maybe_capacity_work t =
  if (not t.ckpt_pending) && auto_checkpoint_due t then t.ckpt_pending <- true;
  if t.ckpt_pending then begin
    if quiescent t then begin
      t.ckpt_pending <- false;
      t.ckpt_deadline <- None;
      checkpoint_now t
    end
    else
      match t.ckpt_deadline with
      | None -> ()
      | Some n when n > 1 -> t.ckpt_deadline <- Some (n - 1)
      | Some _ ->
          t.ckpt_pending <- false;
          t.ckpt_deadline <- None;
          fail "deferred checkpoint missed its deadline: transactions still in flight"
  end

(* ------------------------------------------------------------------ *)
(* Transactions. *)

let begin_txn t = Txn.begin_txn t.mgr

let commit t txn =
  Runtime.commit_with_triggers t.rt txn;
  maybe_capacity_work t

let abort t txn =
  Runtime.abort_with_triggers t.rt txn;
  maybe_capacity_work t

let tabort () = raise Runtime.Tabort

let with_txn t f =
  let txn = begin_txn t in
  match f txn with
  | result -> begin
      match commit t txn with
      | () -> result
      | exception Runtime.Tabort ->
          if Txn.is_active txn then abort t txn;
          raise Aborted
      | exception other ->
          (* A non-tabort failure during commit processing (e.g. an
             injected I/O fault while firing commit-coupled triggers):
             roll back whatever has not committed and release the
             transaction's locks. Secondary failures during the
             emergency rollback are swallowed — the original fault is
             what the caller needs to see. *)
          (if Txn.is_active txn then try Txn.abort txn with _ -> ());
          Runtime.forget t.rt txn;
          raise other
    end
  | exception Runtime.Tabort ->
      abort t txn;
      raise Aborted
  | exception other ->
      (* A non-tabort failure: roll back without before-tabort posting and
         discard even the !dependent work (crash-like), then re-raise. *)
      if Txn.is_active txn then Txn.abort txn;
      Runtime.forget t.rt txn;
      raise other

let attempt t f = match with_txn t f with result -> Some result | exception Aborted -> None

(* Snapshot (read-only) transactions: reads resolve against the version
   chains at a timestamp pinned on first read, take no locks, and can
   never block or deadlock. Writes through one raise [Store_error]. *)
let begin_snapshot t = Txn.begin_txn ~snapshot:true t.mgr

let with_snapshot t f =
  let txn = begin_snapshot t in
  match f txn with
  | result ->
      (* A snapshot transaction performed no trigger work; [forget]
         before commit so the cache participant has nothing to flush. *)
      Runtime.forget t.rt txn;
      Txn.commit txn;
      result
  | exception exn ->
      Runtime.forget t.rt txn;
      (if Txn.is_active txn then try Txn.abort txn with _ -> ());
      raise exn

(* ------------------------------------------------------------------ *)
(* Volatile objects (design goals 3-4). *)

module Volatile = struct
  let vnew t ~cls ?(init = []) () =
    let entry = class_entry t cls in
    let fields =
      List.map
        (fun (name, default) ->
          match List.assoc_opt name init with Some v -> (name, v) | None -> (name, default))
        entry.c_all_fields
    in
    { v_cls = cls; v_fields = fields; v_monitors = [] }

  let get v field =
    match List.assoc_opt field v.v_fields with
    | Some value -> value
    | None -> fail "class %s has no field %s" v.v_cls field

  let set v field value =
    if not (List.mem_assoc field v.v_fields) then fail "class %s has no field %s" v.v_cls field;
    v.v_fields <-
      List.map (fun (n, old) -> if String.equal n field then (n, value) else (n, old)) v.v_fields

  let class_of v = v.v_cls

  (* Advance the volatile object's monitors on an event (monitored
     classes, §8). Same PostEvent step as the runtime's, minus
     transactions, persistence and locks: advance all, then fire. *)
  let post_monitors v event =
    if v.v_monitors <> [] then begin
      let ready = ref [] in
      let advance m =
        if m.m_active && m.m_state <> Fsm.dead then begin
          let mask id = m.m_masks.(id) v in
          match Fsm.advance m.m_fsm ~state:m.m_state ~event ~mask with
          | Fsm.Stay -> ()
          | Fsm.Dead -> m.m_state <- Fsm.dead
          | Fsm.Goto final ->
              m.m_state <- final;
              if Fsm.is_accept m.m_fsm final then ready := m :: !ready
        end
      in
      List.iter advance (List.rev v.v_monitors);
      List.iter
        (fun m ->
          m.m_action v;
          if m.m_once then m.m_active <- false)
        (List.rev !ready)
    end

  let rec invoke t v mname args =
    let impl = resolve_method t ~cls:v.v_cls mname in
    let ctx =
      {
        env = t;
        txn = None;
        self = Volatile v;
        get = get v;
        set = set v;
        invoke_self = (fun m a -> invoke t v m a);
        post_self = (fun ename -> post_user_event t v ename);
      }
    in
    if v.v_monitors = [] then impl ctx args
    else begin
      let before_ids, after_ids = posting_plan t ~cls:v.v_cls mname in
      List.iter (post_monitors v) before_ids;
      let result = impl ctx args in
      List.iter (post_monitors v) after_ids;
      result
    end

  and post_user_event t v ename =
    if v.v_monitors <> [] then post_monitors v (user_event t ~cls:v.v_cls ename)

  let attach t v ~event ?(masks = []) ~action ?(perpetual = true) () =
    let descriptor = Trigger_def.Registry.find_exn (Runtime.registry t.rt) v.v_cls in
    let _, _, fsm =
      compile_event t ~cls:v.v_cls ~alphabet:descriptor.Trigger_def.d_alphabet
        ~masks:(List.map fst masks) ~what:("monitored trigger on " ^ v.v_cls) event
    in
    let m_masks = Array.of_list (List.map snd masks) in
    let monitor =
      {
        m_fsm = fsm;
        m_masks;
        m_action = action;
        m_once = not perpetual;
        (* A start state that evaluates masks settles now, as an
           activation's does. *)
        m_state = Fsm.settle fsm ~mask:(fun id -> m_masks.(id) v) fsm.Fsm.start;
        m_active = true;
      }
    in
    v.v_monitors <- monitor :: v.v_monitors

  let copy_to_persistent t txn v = pnew t txn ~cls:v.v_cls ~init:v.v_fields ()

  let copy_from_persistent t txn oid =
    let record = Database.get t.db txn oid in
    { v_cls = record.Objrec.cls; v_fields = record.Objrec.fields; v_monitors = [] }
end

(* ------------------------------------------------------------------ *)
(* Durability. *)

type crash_image = {
  ci_settings : settings;
  ci_obj_wal : bytes;
  ci_trig_wal : bytes;
}

(* Quiesce-then-checkpoint: with no uncommitted writes in flight the
   checkpoint runs immediately; otherwise it is deferred to the next
   quiescent transaction boundary (see [maybe_capacity_work]) instead of
   the storage layer's hard [Store_error]. [deadline] bounds the wait in
   transaction boundaries; exhausting it raises [Ode_error]. *)
let checkpoint ?deadline t =
  if quiescent t then begin
    t.ckpt_pending <- false;
    t.ckpt_deadline <- None;
    checkpoint_now t
  end
  else begin
    (match deadline with
    | Some n when n <= 0 ->
        fail "checkpoint: transactions in flight and deadline exhausted"
    | _ -> ());
    t.ckpt_pending <- true;
    t.ckpt_deadline <-
      (match (t.ckpt_deadline, deadline) with
      | Some a, Some b -> Some (min a b)
      | None, d | d, None -> d)
  end

let checkpoint_pending t = t.ckpt_pending

let crash t =
  let ci_obj_wal = Wal.durable_bytes t.obj_store.Store.wal in
  let ci_trig_wal = Wal.durable_bytes t.trig_store.Store.wal in
  t.obj_store.Store.crash ();
  t.trig_store.Store.crash ();
  { ci_settings = t.settings; ci_obj_wal; ci_trig_wal }

type recovery_report = { rr_obj_tail : int; rr_trig_tail : int }

let report_of_image image =
  let tail wal_bytes = Recovery.truncated_tail (Wal.decode_records wal_bytes) in
  { rr_obj_tail = tail image.ci_obj_wal; rr_trig_tail = tail image.ci_trig_wal }

let recover ?durability ?faults ?wal_segment_bytes ?ckpt_full_every
    ?auto_checkpoint_bytes image =
  let s = image.ci_settings.storage in
  let pick v default = Option.value v ~default in
  let storage =
    {
      s with
      durability = pick durability s.durability;
      wal_segment_bytes = pick wal_segment_bytes s.wal_segment_bytes;
      ckpt_full_every = pick ckpt_full_every s.ckpt_full_every;
      auto_checkpoint_bytes = pick auto_checkpoint_bytes s.auto_checkpoint_bytes;
    }
  in
  let t =
    build ?faults { image.ci_settings with storage }
      (Some (image.ci_obj_wal, image.ci_trig_wal))
  in
  let txn = Txn.begin_txn ~system:true t.mgr in
  (* A crash can land between the objects store's commit flush and the
     triggers store's (commit is per-participant, not atomic across
     stores): prune trigger activations whose object did not survive.
     With no transaction in flight, the lock-free directory probe is an
     exact existence test. *)
  assert (t.obj_store.Store.in_flight () = 0);
  Runtime.rebuild_index
    ~object_exists:(fun oid -> t.obj_store.Store.maybe_present (Oid.to_rid oid))
    t.rt txn;
  Txn.commit txn;
  t

let image_settings image = image.ci_settings
let image_wals image = (image.ci_obj_wal, image.ci_trig_wal)

let image_of_wals ci_settings (ci_obj_wal, ci_trig_wal) =
  { ci_settings; ci_obj_wal; ci_trig_wal }

let drain_phoenix t = Runtime.drain_phoenix t.rt

(* ------------------------------------------------------------------ *)
(* Counters. *)

let metrics t = t.metrics
let counters t = Metrics.values t.metrics
let reset_counters t = Metrics.reset t.metrics
