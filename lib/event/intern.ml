module Metrics = Ode_util.Metrics

type basic =
  | Before of string
  | After of string
  | User of string
  | Before_tcomplete
  | Before_tabort
  | After_tcommit

let basic_equal a b =
  match (a, b) with
  | Before a, Before b | After a, After b | User a, User b -> String.equal a b
  | Before_tcomplete, Before_tcomplete | Before_tabort, Before_tabort | After_tcommit, After_tcommit
    ->
      true
  | (Before _ | After _ | User _ | Before_tcomplete | Before_tabort | After_tcommit), _ -> false

let pp_basic fmt = function
  | Before name -> Format.fprintf fmt "before %s" name
  | After name -> Format.fprintf fmt "after %s" name
  | User name -> Format.pp_print_string fmt name
  | Before_tcomplete -> Format.pp_print_string fmt "before tcomplete"
  | Before_tabort -> Format.pp_print_string fmt "before tabort"
  | After_tcommit -> Format.pp_print_string fmt "after tcommit"

let basic_to_string b = Format.asprintf "%a" pp_basic b

let basic_of_string text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "after"; "tcommit" ] -> Some After_tcommit
  | [ "before"; "tcomplete" ] -> Some Before_tcomplete
  | [ "before"; "tabort" ] -> Some Before_tabort
  | [ "after"; name ] -> Some (After name)
  | [ "before"; name ] -> Some (Before name)
  | [ name ] -> Some (User name)
  | _ -> None

type key = string * basic

type t = {
  forward : (key, int) Hashtbl.t;
  reverse : (int, key) Hashtbl.t;
  mutable next : int;
  metrics : Metrics.t;
  lookups : Metrics.counter;
}

let create () =
  let m = Metrics.create () in
  let t =
    { forward = Hashtbl.create 64; reverse = Hashtbl.create 64; next = 0; metrics = m;
      lookups = Metrics.counter m "lookups" }
  in
  Metrics.gauge m "events" (fun () -> t.next);
  t

let id t ~cls basic =
  Metrics.incr t.lookups;
  let key = (cls, basic) in
  match Hashtbl.find_opt t.forward key with
  | Some id -> id
  | None ->
      let id = t.next in
      t.next <- id + 1;
      Hashtbl.replace t.forward key id;
      Hashtbl.replace t.reverse id key;
      id

let find t ~cls basic =
  Metrics.incr t.lookups;
  Hashtbl.find_opt t.forward (cls, basic)

let describe t id = Hashtbl.find_opt t.reverse id

let name_of_id t id =
  match describe t id with
  | Some (cls, basic) -> Printf.sprintf "%s:%s" cls (basic_to_string basic)
  | None -> Printf.sprintf "e%d" id

let count t = t.next

let metrics t = t.metrics

(* ------------------------------------------------------------------ *)
(* Deterministic snapshots (Ode_parallel): shard 0 defines the schema,
   snapshots its table, and every other shard pre-registers the same
   assignment — global event ids then agree across shards without any
   locking, because re-interning the same (class, event) pairs in the same
   definition order is a pure replay. *)

type snapshot = (key * int) list  (* sorted by id *)

let snapshot t =
  Hashtbl.fold (fun key id acc -> (key, id) :: acc) t.forward []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let of_snapshot entries =
  let t = create () in
  List.iter
    (fun (key, id) ->
      if Hashtbl.mem t.forward key || Hashtbl.mem t.reverse id then
        invalid_arg "Intern.of_snapshot: duplicate key or id";
      Hashtbl.replace t.forward key id;
      Hashtbl.replace t.reverse id key;
      t.next <- max t.next (id + 1))
    entries;
  t

let equal_snapshot a b =
  List.length a = List.length b
  && List.for_all2
       (fun ((ca, ba), ia) ((cb, bb), ib) -> String.equal ca cb && basic_equal ba bb && ia = ib)
       a b
