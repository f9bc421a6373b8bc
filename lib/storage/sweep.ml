type family =
  | Points of { stride : int }
  | Site of { site : Faults.site; every : int; acts : int -> Faults.action list }

(* 1, 1 + step, ... up to [last]. *)
let from_one ~step last = List.init (max 0 ((last + step - 1) / step)) (fun i -> 1 + (i * step))

let plans baseline families =
  List.concat_map
    (function
      | Points { stride } ->
          List.map
            (fun p -> [ { Faults.sel = At p; act = Crash } ])
            (from_one ~step:(max 1 stride) (Faults.point baseline))
      | Site { site; every; acts } ->
          List.concat_map
            (fun k -> List.map (fun act -> [ { Faults.sel = Nth (site, k); act } ]) (acts k))
            (from_one ~step:(max 1 every) (Faults.site_count baseline site)))
    families

type runner = Faults.plan -> Faults.t * string list

(* What the plane's fired log says about where the plan's fault landed. *)
let firing plan faults =
  match (Faults.fired faults, plan) with
  | [], _ -> [ "planned fault never fired" ]
  | (q, _, _) :: _, { Faults.sel = At p; _ } :: _ when q <> p ->
      [ Printf.sprintf "fault fired at point %d, not %d" q p ]
  | _ -> []

let run ?on_progress plans runner =
  let total = List.length plans in
  List.concat
    (List.mapi
       (fun i plan ->
         let text = Faults.plan_to_string plan in
         let faults, violations = runner plan in
         let found = List.map (fun v -> (text, v)) (firing plan faults @ violations) in
         Option.iter (fun f -> f ~done_:(i + 1) ~total) on_progress;
         found)
       plans)

type result = { baseline : Faults.t; plans : int; violations : (string * string) list }

let sweep ?on_progress ~baseline families runner =
  let plans = plans baseline families in
  { baseline; plans = List.length plans; violations = run ?on_progress plans runner }
