type counter = int ref

external incr : counter -> unit = "%incr"

let add c n = c := !c + n

type kind = Counter | Gauge | Peak | Mean of { sum : string; count : string }

type entry =
  | Cell of counter
  | Read of kind * (unit -> int)  (* Gauge or Peak *)
  | Derived of { sum : string; count : string }
  | Child of t

and t = { mutable entries : (string * entry) list }

let create () = { entries = [] }
let register t name entry = t.entries <- (name, entry) :: t.entries

let counter t name =
  let c = ref 0 in
  register t name (Cell c);
  c

let gauge t name read = register t name (Read (Gauge, read))
let peak t name read = register t name (Read (Peak, read))
let mean t name ~sum ~count = register t name (Derived { sum; count })
let attach t ?(prefix = "") child = register t prefix (Child child)

let rec reset t =
  List.iter
    (function _, Cell c -> c := 0 | _, Child child -> reset child | _, (Read _ | Derived _) -> ())
    t.entries

type snapshot = (string * kind * int) list

let join prefix name =
  if prefix = "" then name else if name = "" then prefix else prefix ^ "." ^ name

let snapshot t =
  let rec walk prefix t acc =
    List.fold_left
      (fun acc (name, entry) ->
        let key = join prefix name in
        match entry with
        | Cell c -> (key, Counter, !c) :: acc
        | Read (kind, read) -> (key, kind, read ()) :: acc
        | Derived { sum; count } ->
            (key, Mean { sum = join prefix sum; count = join prefix count }, 0) :: acc
        | Child child -> walk key child acc)
      acc t.entries
  in
  walk "" t []

let merge snapshots =
  let acc = Hashtbl.create 128 in
  List.iter
    (List.iter (fun (key, kind, v) ->
         let v =
           match (Hashtbl.find_opt acc key, kind) with
           | None, _ | Some _, Mean _ -> v
           | Some (_, prev), Peak -> max prev v
           | Some (_, prev), (Counter | Gauge) -> prev + v
         in
         Hashtbl.replace acc key (kind, v)))
    snapshots;
  let merged key = match Hashtbl.find_opt acc key with Some (_, v) -> v | None -> 0 in
  Hashtbl.fold
    (fun key (kind, v) l ->
      let v =
        match kind with
        | Mean { sum; count } ->
            let n = merged count in
            if n = 0 then 0 else (merged sum + (n / 2)) / n
        | Counter | Gauge | Peak -> v
      in
      (key, v) :: l)
    acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let values t = merge [ snapshot t ]
let get t key = List.assoc key (values t)
