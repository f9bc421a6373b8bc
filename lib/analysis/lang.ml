module Fsm = Ode_event.Fsm
module Sym = Ode_event.Sym
module Minimize = Ode_event.Minimize
module IntSet = Fsm.IntSet

(* A configuration is a settled machine state; [dead] is permanent. *)
let dead = Fsm.dead

(* Settle a machine from [s] by evaluating pending masks exactly as the
   runtime cascade does (smallest pending mask first, revisit guard
   quiesces), branching on every mask id the [valuation] has not pinned
   yet. [emit] receives each settled state with the extended valuation. *)
let settle fsm s valuation emit =
  let rec go s visited valuation =
    if s = dead then emit dead valuation
    else begin
      match Fsm.pending_masks fsm s with
      | [] -> emit s valuation
      | m :: _ ->
          if List.mem s visited then emit s valuation
          else begin
            let visited = s :: visited in
            let branch v valuation =
              let sym = if v then Sym.MTrue m else Sym.MFalse m in
              match Fsm.step fsm s sym with
              | Fsm.Goto target -> go target visited valuation
              | Fsm.Dead -> emit dead valuation
              | Fsm.Stay -> emit s valuation
            in
            match List.assoc_opt m valuation with
            | Some v -> branch v valuation
            | None ->
                branch true ((m, true) :: valuation);
                branch false ((m, false) :: valuation)
          end
    end
  in
  go s [] valuation

let settled_starts fsm =
  let out = ref IntSet.empty in
  settle fsm fsm.Fsm.start [] (fun s _ -> out := IntSet.add s !out);
  IntSet.elements (IntSet.remove dead !out)

(* [moved, target] of stepping a settled state on a real event. *)
let step_event fsm s e =
  if s = dead then (false, dead)
  else begin
    match Fsm.step fsm s (Sym.Ev e) with
    | Fsm.Goto target -> (true, target)
    | Fsm.Dead -> (true, dead)
    | Fsm.Stay -> (false, s)
  end

(* ---------------- emptiness / witness ---------------- *)

(* BFS over settled states; [parent] remembers one (predecessor, event)
   per discovered state so a firing yields a shortest witness. *)
let search fsm =
  let parent = Hashtbl.create 32 in
  let seen = Hashtbl.create 32 in
  let queue = Queue.create () in
  let push ?from s =
    if s <> dead && not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s ();
      (match from with Some (prev, e) -> Hashtbl.replace parent s (prev, e) | None -> ());
      Queue.add s queue
    end
  in
  List.iter (fun s -> push s) (settled_starts fsm);
  let exception Fired of int * int in
  (* prefix-end state, firing event *)
  match
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      IntSet.iter
        (fun e ->
          match Fsm.step fsm s (Sym.Ev e) with
          | Fsm.Stay | Fsm.Dead -> ()
          | Fsm.Goto target ->
              settle fsm target [] (fun settled _ ->
                  if settled <> dead && Fsm.is_accept fsm settled then raise (Fired (s, e));
                  push ~from:(s, e) settled))
        fsm.Fsm.alphabet
    done
  with
  | () -> None
  | exception Fired (s, e) ->
      let rec unwind s acc =
        match Hashtbl.find_opt parent s with
        | Some (prev, e') -> unwind prev (e' :: acc)
        | None -> acc
      in
      Some (unwind s [] @ [ e ])

let witness fsm = search fsm

let can_fire fsm = search fsm <> None

let empty fsm = not (can_fire fsm)

(* ---------------- pairwise product ---------------- *)

(* Settle both machines under one shared valuation: machine [a] cascades
   to quiescence first, then [b] — the runtime advances each activation's
   cascade independently, and predicates are pure reads within a posting,
   so only the shared valuation links them. *)
let settle_pair a b (sa, sb) emit =
  settle a sa [] (fun sa' valuation -> settle b sb valuation (fun sb' _ -> emit (sa', sb')))

module PairSet = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

(* Search for a stream firing [a] but not [b] at the same posting. *)
let fires_not_covered a b =
  let alphabet = IntSet.union a.Fsm.alphabet b.Fsm.alphabet in
  let parent = Hashtbl.create 64 in
  let seen = ref PairSet.empty in
  let queue = Queue.create () in
  let push ?from c =
    if c <> (dead, dead) && not (PairSet.mem c !seen) then begin
      seen := PairSet.add c !seen;
      (match from with Some (prev, e) -> Hashtbl.replace parent c (prev, e) | None -> ());
      Queue.add c queue
    end
  in
  settle_pair a b (a.Fsm.start, b.Fsm.start) (fun c -> push c);
  let exception Gap of (int * int) * int in
  match
    while not (Queue.is_empty queue) do
      let ((sa, sb) as c) = Queue.pop queue in
      IntSet.iter
        (fun e ->
          let moved_a, ta = step_event a sa e in
          let moved_b, tb = step_event b sb e in
          if moved_a && ta <> dead then
            settle_pair a b (ta, tb) (fun ((fa, fb) as c') ->
                let a_fires = fa <> dead && Fsm.is_accept a fa in
                let b_fires = moved_b && fb <> dead && Fsm.is_accept b fb in
                if a_fires && not b_fires then raise (Gap (c, e));
                push ~from:(c, e) c')
          else if (moved_a || moved_b) && (ta, tb) <> (dead, dead) then
            (* [a] died or stood still; only [b]'s side needs settling. *)
            settle b tb [] (fun fb _ -> push ~from:(c, e) (ta, fb))
          (* neither machine moved: the configuration is unchanged *))
        alphabet
    done
  with
  | () -> None
  | exception Gap (c, e) ->
      let rec unwind c acc =
        match Hashtbl.find_opt parent c with
        | Some (prev, e') -> unwind prev (e' :: acc)
        | None -> acc
      in
      Some (unwind c [], e)

let included a b = fires_not_covered a b = None

let equal_lang a b = included a b && included b a

(* ---------------- graph-level liveness ---------------- *)

let live_events fsm =
  let reach = Minimize.reachable fsm in
  let coacc = Minimize.coaccessible fsm in
  Array.fold_left
    (fun acc (st : Fsm.state) ->
      if IntSet.mem st.Fsm.statenum reach then
        Array.fold_left
          (fun acc (sym, target) ->
            match sym with
            | Sym.Ev e when IntSet.mem target coacc -> IntSet.add e acc
            | Sym.Ev _ | Sym.MTrue _ | Sym.MFalse _ -> acc)
          acc st.Fsm.trans
      else acc)
    IntSet.empty fsm.Fsm.states

let firing_events fsm =
  let reach = Minimize.reachable fsm in
  Array.fold_left
    (fun acc (st : Fsm.state) ->
      if IntSet.mem st.Fsm.statenum reach then
        Array.fold_left
          (fun acc (sym, target) ->
            match sym with
            | Sym.Ev e ->
                let fires = ref false in
                settle fsm target [] (fun settled _ ->
                    if settled <> dead && Fsm.is_accept fsm settled then fires := true);
                if !fires then IntSet.add e acc else acc
            | Sym.MTrue _ | Sym.MFalse _ -> acc)
          acc st.Fsm.trans
      else acc)
    IntSet.empty fsm.Fsm.states

let start_live_events fsm =
  let coacc = Minimize.coaccessible fsm in
  List.fold_left
    (fun acc s ->
      IntSet.fold
        (fun e acc ->
          match Fsm.step fsm s (Sym.Ev e) with
          | Fsm.Goto target when IntSet.mem target coacc -> IntSet.add e acc
          | Fsm.Goto _ | Fsm.Stay | Fsm.Dead -> acc)
        fsm.Fsm.alphabet acc)
    IntSet.empty (settled_starts fsm)

let start_rejects fsm e =
  IntSet.mem e fsm.Fsm.alphabet
  && List.for_all
       (fun s -> match Fsm.step fsm s (Sym.Ev e) with Fsm.Dead -> true | _ -> false)
       (settled_starts fsm)
