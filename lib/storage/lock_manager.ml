module Metrics = Ode_util.Metrics

type mode = S | X

type key = Record of string * Rid.t | Named of string

type outcome = Granted | Blocked of int list

exception Deadlock of { victim : int; cycle : int list }

(* A record hashes by its rid alone. The two stores of a session share one
   manager, so their same-numbered rids share a bucket; [equal] compares
   the rid first and tells them apart by store name. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    match (a, b) with
    | Record (store, rid), Record (store', rid') -> Rid.equal rid rid' && String.equal store store'
    | Named name, Named name' -> String.equal name name'
    | Record _, Named _ | Named _, Record _ -> false

  let hash = function Record (_, rid) -> Rid.to_int rid | Named name -> String.hash name
end)

module Txn_tbl = Hashtbl.Make (Int)

(* One cell per locked key, from its first grant until its last holder
   releases: the key and its (txn, mode) holders, oldest first. *)
type cell = { key : key; mutable holders : (int * mode) list }

type t = {
  table : cell Key_tbl.t;
  waiting : (key * mode) Txn_tbl.t;
  held : cell list Txn_tbl.t;  (* each transaction's cells, newest first *)
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
    table = Key_tbl.create 256;
    waiting = Txn_tbl.create 16;
    held = Txn_tbl.create 16;
    metrics = m;
    s_granted = Metrics.counter m "s_granted";
    x_granted = Metrics.counter m "x_granted";
    upgrades = Metrics.counter m "upgrades";
    blocks = Metrics.counter m "blocks";
    deadlocks = Metrics.counter m "deadlocks";
  }

let metrics t = t.metrics

let rec mode_of txn = function
  | [] -> None
  | (holder, mode) :: rest -> if holder = txn then Some mode else mode_of txn rest

let rec without txn = function
  | [] -> []
  | ((holder, _) as h) :: rest -> if holder = txn then rest else h :: without txn rest

let rec conflicts ~txn mode = function
  | [] -> []
  | (holder, held) :: rest ->
      if holder = txn || (mode = S && held = S) then conflicts ~txn mode rest
      else holder :: conflicts ~txn mode rest

let holders_of t key = match Key_tbl.find_opt t.table key with Some cell -> cell.holders | None -> []

(* Depth-first search over the waits-for graph looking for a path from any
   of [roots] back to [target]. Edges go from a waiting transaction to the
   holders conflicting with its pending request. *)
let find_cycle t ~target roots =
  let visited = Txn_tbl.create 16 in
  let rec dfs path node =
    if node = target then Some (List.rev (node :: path))
    else if Txn_tbl.mem visited node then None
    else begin
      Txn_tbl.replace visited node ();
      match Txn_tbl.find_opt t.waiting node with
      | None -> None
      | Some (key, mode) ->
          let next = conflicts ~txn:node mode (holders_of t key) in
          List.fold_left
            (fun found n -> match found with Some _ -> found | None -> dfs (node :: path) n)
            None next
    end
  in
  List.fold_left
    (fun found root -> match found with Some _ -> found | None -> dfs [] root)
    None roots

let cancel_wait t ~txn = if Txn_tbl.length t.waiting > 0 then Txn_tbl.remove t.waiting txn

(* [txn]'s first grant on [cell], already in its holder list. *)
let add_holder t ~txn cell mode =
  Metrics.incr (match mode with S -> t.s_granted | X -> t.x_granted);
  let cells = match Txn_tbl.find_opt t.held txn with Some cells -> cells | None -> [] in
  Txn_tbl.replace t.held txn (cell :: cells);
  Granted

(* A request first cancels the requester's pending wait; if it blocks
   again, the wait is re-registered with this request. *)
let acquire t ~txn key mode =
  cancel_wait t ~txn;
  match Key_tbl.find_opt t.table key with
  | None ->
      let cell = { key; holders = [ (txn, mode) ] } in
      Key_tbl.add t.table key cell;
      add_holder t ~txn cell mode
  | Some cell -> (
      match (mode_of txn cell.holders, mode, conflicts ~txn mode cell.holders) with
      | Some X, _, _ | Some S, S, _ -> Granted
      | Some S, X, [] ->
          (* Only a sole holder meets no conflict: it upgrades in place. *)
          Metrics.incr t.upgrades;
          Metrics.incr t.x_granted;
          cell.holders <- [ (txn, X) ];
          Granted
      | None, _, [] ->
          cell.holders <- cell.holders @ [ (txn, mode) ];
          add_holder t ~txn cell mode
      | _, _, conflicts -> (
          Metrics.incr t.blocks;
          Txn_tbl.add t.waiting txn (key, mode);
          match find_cycle t ~target:txn conflicts with
          | Some cycle ->
              cancel_wait t ~txn;
              Metrics.incr t.deadlocks;
              raise (Deadlock { victim = txn; cycle })
          | None -> Blocked conflicts))

let release_all t ~txn =
  cancel_wait t ~txn;
  match Txn_tbl.find_opt t.held txn with
  | None -> ()
  | Some cells ->
      Txn_tbl.remove t.held txn;
      List.iter
        (fun cell ->
          match without txn cell.holders with
          | [] -> Key_tbl.remove t.table cell.key
          | rest -> cell.holders <- rest)
        cells

let holds t ~txn key = mode_of txn (holders_of t key)

let held_keys t ~txn =
  match Txn_tbl.find_opt t.held txn with None -> [] | Some cells -> List.map (fun cell -> cell.key) cells

let pp_key fmt = function
  | Record (store, rid) -> Format.fprintf fmt "%s/%a" store Rid.pp rid
  | Named name -> Format.fprintf fmt "#%s" name
