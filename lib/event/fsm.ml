module IntSet = Set.Make (Int)

type step_result = Stay | Goto of int | Dead

type state = {
  statenum : int;
  accept : bool;
  pending : int list;
  trans : (Sym.t * int) array;
}

type t = {
  states : state array;
  start : int;
  alphabet : IntSet.t;
  mask_ids : IntSet.t;
  mutable live : Bytes.t option array;
}

let make ~states ~start ~alphabet ~mask_ids =
  let n = Array.length states in
  if n = 0 then invalid_arg "Fsm.make: no states";
  if start < 0 || start >= n then invalid_arg "Fsm.make: start out of range";
  Array.iteri
    (fun i st ->
      if st.statenum <> i then invalid_arg "Fsm.make: statenum mismatch";
      Array.iteri
        (fun j (sym, target) ->
          if target < 0 || target >= n then invalid_arg "Fsm.make: transition target out of range";
          if j > 0 && Sym.compare (fst st.trans.(j - 1)) sym >= 0 then
            invalid_arg "Fsm.make: transitions not strictly sorted")
        st.trans)
    states;
  { states; start; alphabet; mask_ids; live = Array.make n None }

let num_states t = Array.length t.states

let num_transitions t = Array.fold_left (fun acc st -> acc + Array.length st.trans) 0 t.states

let state t i = t.states.(i)

let is_accept t i = t.states.(i).accept

let pending_masks t i = t.states.(i).pending

(* Binary search of a state's sorted transitions: the index of [sym]'s
   transition in [trans.(lo..hi-1)], or -1. *)
let rec find trans sym lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let c = Sym.compare sym (fst trans.(mid)) in
    if c = 0 then mid else if c < 0 then find trans sym lo mid else find trans sym (mid + 1) hi
  end

let step t i sym =
  let st = t.states.(i) in
  let j = find st.trans sym 0 (Array.length st.trans) in
  if j >= 0 then Goto (snd st.trans.(j))
  else begin
    match sym with
    | Sym.Ev e -> if IntSet.mem e t.alphabet then Dead else Stay
    | Sym.MTrue m | Sym.MFalse m -> if List.mem m st.pending then Dead else Stay
  end

(* ---------------- PostEvent's machine step (§5.4.5) ---------------- *)

let dead = -1

(* Step b: while the current state evaluates masks, step on its first
   pending mask's value. A state already visited in this cascade ends it,
   so a mask cycle quiesces instead of looping. A pending mask's
   pseudo-event is never ignored, so each step is a move or a death. *)
let settle ?(on_move = ignore) t ~mask state =
  let rec go state seen =
    match t.states.(state).pending with
    | [] -> state
    | m :: _ when not (List.mem state seen) -> begin
        match step t state (if mask m then Sym.MTrue m else Sym.MFalse m) with
        | Goto next ->
            on_move ();
            go next (state :: seen)
        | Dead -> dead
        | Stay -> state
      end
    | _ :: _ -> state
  in
  go state []

let advance ?(on_move = ignore) t ~state ~event ~mask =
  match step t state (Sym.Ev event) with
  | Goto next ->
      on_move ();
      let final = settle ~on_move t ~mask next in
      if final = dead then Dead else Goto final
  | (Stay | Dead) as r -> r

(* ---------------- per-state live-event bitsets ---------------- *)

(* Width in event-id space of the machine's alphabet: bits for ids >= this
   are never set, and such events are trivially [Stay]. *)
let universe t = match IntSet.max_elt_opt t.alphabet with None -> 0 | Some m -> m + 1

(* An event is {e live} in a state iff posting it there is observable:
   it moves the machine somewhere else, kills it, or re-enters the same
   state in a way the runtime can see (the state evaluates masks on entry,
   or is an accept state so re-entry re-fires the action). A [Goto] back
   into a maskless non-accept state is indistinguishable from [Stay] at
   the posting level, so it is deliberately not live. *)
let event_live_uncached t state e =
  match step t state (Sym.Ev e) with
  | Stay -> false
  | Dead -> true
  | Goto target ->
      target <> state || t.states.(state).pending <> [] || t.states.(state).accept

let live_set t state =
  match t.live.(state) with
  | Some b -> b
  | None ->
      let b = Bytes.make ((universe t + 7) / 8) '\000' in
      IntSet.iter
        (fun e ->
          if event_live_uncached t state e then
            Bytes.unsafe_set b (e lsr 3)
              (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (e lsr 3)) lor (1 lsl (e land 7)))))
        t.alphabet;
      t.live.(state) <- Some b;
      b

let event_live t ~state ~event =
  if state < 0 || state >= Array.length t.states then false
  else begin
    let b = live_set t state in
    let byte = event lsr 3 in
    event >= 0
    && byte < Bytes.length b
    && Char.code (Bytes.unsafe_get b byte) land (1 lsl (event land 7)) <> 0
  end

let live_events t state =
  IntSet.filter (fun e -> event_live t ~state ~event:e) t.alphabet

let approx_bytes t =
  (* One word statenum + accept + pending list + trans array header per
     state; three words per transition (boxed pair of sym and target). *)
  let per_state st = 40 + (8 * List.length st.pending) + (24 * Array.length st.trans) in
  Array.fold_left (fun acc st -> acc + per_state st) 0 t.states

(* ---------------- behavioural equivalence ---------------- *)

let equivalent a b =
  if not (IntSet.equal a.alphabet b.alphabet) then false
  else begin
    let module PairSet = Set.Make (struct
      type t = int * int

      let compare = compare
    end) in
    let exception Distinct in
    let visited = ref PairSet.empty in
    let rec visit sa sb =
      if not (PairSet.mem (sa, sb) !visited) then begin
        visited := PairSet.add (sa, sb) !visited;
        let sta = a.states.(sa) and stb = b.states.(sb) in
        if sta.accept <> stb.accept then raise Distinct;
        if not (List.equal Int.equal sta.pending stb.pending) then raise Distinct;
        let probe sym =
          match (step a sa sym, step b sb sym) with
          | Goto ta, Goto tb -> visit ta tb
          | Dead, Dead | Stay, Stay -> ()
          | (Goto _ | Dead | Stay), _ -> raise Distinct
        in
        IntSet.iter (fun e -> probe (Sym.Ev e)) a.alphabet;
        List.iter
          (fun m ->
            probe (Sym.MTrue m);
            probe (Sym.MFalse m))
          sta.pending
      end
    in
    match visit a.start b.start with () -> true | exception Distinct -> false
  end

(* ---------------- printing ---------------- *)

let pp ?event_name () fmt t =
  let pp_sym = Sym.pp ?event_name () in
  Format.fprintf fmt "@[<v>FSM: %d states, start %d@," (num_states t) t.start;
  Array.iter
    (fun st ->
      let mask_note = if st.pending = [] then "" else "*" in
      let accept_note = if st.accept then " (accept)" else "" in
      Format.fprintf fmt "state %d%s%s:@," st.statenum mask_note accept_note;
      (match st.pending with
      | [] -> ()
      | masks ->
          Format.fprintf fmt "  evaluates masks: %a@,"
            (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") (fun fmt m ->
                 Format.fprintf fmt "m%d" m))
            masks);
      Array.iter (fun (sym, target) -> Format.fprintf fmt "  %a -> %d@," pp_sym sym target) st.trans)
    t.states;
  Format.fprintf fmt "@]"

let to_dot ?event_name t =
  let pp_sym = Sym.pp ?event_name () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph fsm {\n  rankdir=LR;\n  node [shape=circle];\n";
  Buffer.add_string buf (Printf.sprintf "  init [shape=point];\n  init -> %d;\n" t.start);
  Array.iter
    (fun st ->
      let shape = if st.accept then "doublecircle" else "circle" in
      let label =
        if st.pending = [] then string_of_int st.statenum else Printf.sprintf "%d*" st.statenum
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d [shape=%s,label=\"%s\"];\n" st.statenum shape label);
      Array.iter
        (fun (sym, target) ->
          Buffer.add_string buf
            (Format.asprintf "  %d -> %d [label=\"%a\"];\n" st.statenum target pp_sym sym))
        st.trans)
    t.states;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
