module Metrics = Ode_util.Metrics

type mode = S | X

type key = Record of string * Rid.t | Named of string

type outcome = Granted | Blocked of int list

exception Deadlock of { victim : int; cycle : int list }

type t = {
  table : (key, (int, mode) Hashtbl.t) Hashtbl.t;
  waiting : (int, key * mode) Hashtbl.t;
  held : (int, (key, unit) Hashtbl.t) Hashtbl.t;
  metrics : Metrics.t;
  s_granted : Metrics.counter;
  x_granted : Metrics.counter;
  upgrades : Metrics.counter;
  blocks : Metrics.counter;
  deadlocks : Metrics.counter;
}

let create () =
  let m = Metrics.create () in
  {
    table = Hashtbl.create 256;
    waiting = Hashtbl.create 16;
    held = Hashtbl.create 16;
    metrics = m;
    s_granted = Metrics.counter m "s_granted";
    x_granted = Metrics.counter m "x_granted";
    upgrades = Metrics.counter m "upgrades";
    blocks = Metrics.counter m "blocks";
    deadlocks = Metrics.counter m "deadlocks";
  }

let metrics t = t.metrics

let holders_tbl t key =
  match Hashtbl.find_opt t.table key with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.replace t.table key h;
      h

let conflicting_holders t ~txn key mode =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some holders ->
      Hashtbl.fold
        (fun holder held acc ->
          if holder = txn then acc
          else begin
            match (mode, held) with
            | S, S -> acc
            | S, X | X, S | X, X -> holder :: acc
          end)
        holders []

(* Depth-first search over the waits-for graph looking for a path from any
   of [roots] back to [target]. Edges go from a waiting transaction to the
   holders conflicting with its pending request. *)
let find_cycle t ~target roots =
  let visited = Hashtbl.create 16 in
  let rec dfs path node =
    if node = target then Some (List.rev (node :: path))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      match Hashtbl.find_opt t.waiting node with
      | None -> None
      | Some (key, mode) ->
          let next = conflicting_holders t ~txn:node key mode in
          List.fold_left
            (fun found n -> match found with Some _ -> found | None -> dfs (node :: path) n)
            None next
    end
  in
  List.fold_left
    (fun found root -> match found with Some _ -> found | None -> dfs [] root)
    None roots

let note_held t ~txn key =
  let keys =
    match Hashtbl.find_opt t.held txn with
    | Some keys -> keys
    | None ->
        let keys = Hashtbl.create 8 in
        Hashtbl.replace t.held txn keys;
        keys
  in
  Hashtbl.replace keys key ()

let cancel_wait t ~txn = Hashtbl.remove t.waiting txn

let acquire t ~txn key mode =
  let holders = holders_tbl t key in
  let current = Hashtbl.find_opt holders txn in
  let already_sufficient =
    match (current, mode) with Some X, _ -> true | Some S, S -> true | Some S, X | None, _ -> false
  in
  if already_sufficient then begin
    cancel_wait t ~txn;
    Granted
  end
  else begin
    let conflicts = conflicting_holders t ~txn key mode in
    if conflicts = [] then begin
      (match (current, mode) with
      | Some S, X ->
          Metrics.incr t.upgrades;
          Metrics.incr t.x_granted
      | None, S -> Metrics.incr t.s_granted
      | None, X -> Metrics.incr t.x_granted
      | Some X, _ | Some S, S -> ());
      Hashtbl.replace holders txn mode;
      note_held t ~txn key;
      cancel_wait t ~txn;
      Granted
    end
    else begin
      Metrics.incr t.blocks;
      Hashtbl.replace t.waiting txn (key, mode);
      match find_cycle t ~target:txn conflicts with
      | Some cycle ->
          cancel_wait t ~txn;
          Metrics.incr t.deadlocks;
          raise (Deadlock { victim = txn; cycle })
      | None -> Blocked conflicts
    end
  end

let release_all t ~txn =
  cancel_wait t ~txn;
  (match Hashtbl.find_opt t.held txn with
  | None -> ()
  | Some keys ->
      Hashtbl.iter
        (fun key () ->
          match Hashtbl.find_opt t.table key with
          | None -> ()
          | Some holders ->
              Hashtbl.remove holders txn;
              if Hashtbl.length holders = 0 then Hashtbl.remove t.table key)
        keys);
  Hashtbl.remove t.held txn

let holds t ~txn key =
  match Hashtbl.find_opt t.table key with None -> None | Some holders -> Hashtbl.find_opt holders txn

let held_keys t ~txn =
  match Hashtbl.find_opt t.held txn with
  | None -> []
  | Some keys -> Hashtbl.fold (fun key () acc -> key :: acc) keys []

let pp_key fmt = function
  | Record (store, rid) -> Format.fprintf fmt "%s/%a" store Rid.pp rid
  | Named name -> Format.fprintf fmt "#%s" name
