exception Unsupported of string

module IntSet = Fsm.IntSet

(* ------------------------------------------------------------------ *)
(* Simple complete DFAs over the real-event alphabet only; used to give
   semantics to the [!] and [&&] extensions, whose operands are mask-free
   regular expressions. *)

type sdfa = {
  sd_n : int;
  sd_start : int;
  sd_accept : bool array;
  sd_next : int array array;  (* [state].(alphabet index) *)
}

let determinize_simple (nfa : Nfa.t) ~(alphabet : int array) =
  let module SetMap = Map.Make (Nfa.IntSet) in
  let nsyms = Array.length alphabet in
  let key_of set = set in
  let ids = ref SetMap.empty in
  let states = ref [] in
  let counter = ref 0 in
  let rec visit set =
    let key = key_of set in
    match SetMap.find_opt key !ids with
    | Some id -> id
    | None ->
        let id = !counter in
        incr counter;
        ids := SetMap.add key id !ids;
        let row = Array.make nsyms (-1) in
        let accept = Nfa.IntSet.mem nfa.Nfa.accept set in
        states := (id, row, accept) :: !states;
        Array.iteri
          (fun i e ->
            let target = Nfa.closure nfa (Nfa.move_event nfa set e) in
            row.(i) <- visit target)
          alphabet;
        id
  in
  (* The empty set is a valid subset state and acts as the sink, so the
     machine is already complete. *)
  let start = visit (Nfa.closure nfa (Nfa.IntSet.singleton nfa.Nfa.start)) in
  let n = !counter in
  let accept = Array.make n false in
  let next = Array.make n [||] in
  List.iter
    (fun (id, row, acc) ->
      accept.(id) <- acc;
      next.(id) <- row)
    !states;
  { sd_n = n; sd_start = start; sd_accept = accept; sd_next = next }

let sdfa_complement d = { d with sd_accept = Array.map not d.sd_accept }

let sdfa_product a b =
  let nsyms = Array.length a.sd_next.(0) in
  let ids = Hashtbl.create 64 in
  let states = ref [] in
  let counter = ref 0 in
  let rec visit (sa, sb) =
    match Hashtbl.find_opt ids (sa, sb) with
    | Some id -> id
    | None ->
        let id = !counter in
        incr counter;
        Hashtbl.replace ids (sa, sb) id;
        let row = Array.make nsyms (-1) in
        states := (id, row, a.sd_accept.(sa) && b.sd_accept.(sb)) :: !states;
        for i = 0 to nsyms - 1 do
          row.(i) <- visit (a.sd_next.(sa).(i), b.sd_next.(sb).(i))
        done;
        id
  in
  let start = visit (a.sd_start, b.sd_start) in
  let n = !counter in
  let accept = Array.make n false in
  let next = Array.make n [||] in
  List.iter
    (fun (id, row, acc) ->
      accept.(id) <- acc;
      next.(id) <- row)
    !states;
  { sd_n = n; sd_start = start; sd_accept = accept; sd_next = next }

(* Degenerate product when the alphabet is empty: only the start states
   matter. *)
let sdfa_product_empty_alpha a b =
  {
    sd_n = 1;
    sd_start = 0;
    sd_accept = [| a.sd_accept.(a.sd_start) && b.sd_accept.(b.sd_start) |];
    sd_next = [| [||] |];
  }

(* ------------------------------------------------------------------ *)
(* Thompson construction. *)

let rec thompson ~alphabet expr =
  let alphabet_set = IntSet.of_list alphabet in
  let mentioned = Ast.events expr in
  List.iter
    (fun e ->
      if not (IntSet.mem e alphabet_set) then
        invalid_arg (Printf.sprintf "Compile.thompson: event %d not in the class alphabet" e))
    mentioned;
  let alphabet_arr = Array.of_list (IntSet.elements alphabet_set) in
  let b = Nfa.Builder.create () in
  (* Each [build] call returns a fragment (entry, exit). *)
  let rec build expr =
    match expr with
    | Ast.Empty ->
        let s = Nfa.Builder.fresh_state b in
        (s, s)
    | Ast.Basic e ->
        let s = Nfa.Builder.fresh_state b in
        let f = Nfa.Builder.fresh_state b in
        Nfa.Builder.add_edge b s (Nfa.LEv e) f;
        (s, f)
    | Ast.Any ->
        let s = Nfa.Builder.fresh_state b in
        let f = Nfa.Builder.fresh_state b in
        Array.iter (fun e -> Nfa.Builder.add_edge b s (Nfa.LEv e) f) alphabet_arr;
        (s, f)
    | Ast.Seq (x, y) ->
        let sx, fx = build x in
        let sy, fy = build y in
        Nfa.Builder.add_eps b fx sy;
        (sx, fy)
    | Ast.Or (x, y) ->
        let s = Nfa.Builder.fresh_state b in
        let f = Nfa.Builder.fresh_state b in
        let sx, fx = build x in
        let sy, fy = build y in
        Nfa.Builder.add_eps b s sx;
        Nfa.Builder.add_eps b s sy;
        Nfa.Builder.add_eps b fx f;
        Nfa.Builder.add_eps b fy f;
        (s, f)
    | Ast.Star x ->
        let s = Nfa.Builder.fresh_state b in
        let f = Nfa.Builder.fresh_state b in
        let sx, fx = build x in
        Nfa.Builder.add_eps b s sx;
        Nfa.Builder.add_eps b s f;
        Nfa.Builder.add_eps b fx sx;
        Nfa.Builder.add_eps b fx f;
        (s, f)
    | Ast.Plus x -> build (Ast.Seq (x, Ast.Star x))
    | Ast.Opt x -> build (Ast.Or (x, Ast.Empty))
    | Ast.Masked (x, mask) ->
        let sx, fx = build x in
        let f = Nfa.Builder.fresh_state b in
        Nfa.Builder.add_edge b fx (Nfa.LTrue mask.Ast.mask_id) f;
        (sx, f)
    | Ast.Relative parts -> begin
        match parts with
        | [] -> build Ast.Empty
        | [ single ] -> build single
        | first :: rest ->
            List.fold_left
              (fun acc part -> Ast.Seq (acc, Ast.Seq (Ast.Star Ast.Any, part)))
              first rest
            |> build
      end
    | Ast.Not x ->
        if Ast.has_mask x then raise (Unsupported "complement (!) of a masked expression");
        embed (sdfa_complement (sub_sdfa x))
    | Ast.And (x, y) ->
        if Ast.has_mask x || Ast.has_mask y then
          raise (Unsupported "intersection (&&) of a masked expression");
        let da = sub_sdfa x and db = sub_sdfa y in
        let product =
          if Array.length alphabet_arr = 0 then sdfa_product_empty_alpha da db
          else sdfa_product da db
        in
        embed product
  (* Compile a mask-free subexpression to a standalone complete DFA (fresh
     builder via the recursive [thompson] call; depth bounded by AST
     nesting). *)
  and sub_sdfa x =
    let sub = thompson ~alphabet:(Array.to_list alphabet_arr) x in
    determinize_simple sub ~alphabet:alphabet_arr
  (* Install a complete DFA as an NFA fragment: one builder state per DFA
     state, event edges copied, accepting states epsilon-linked to a fresh
     exit. *)
  and embed d =
    let mapped = Array.init d.sd_n (fun _ -> Nfa.Builder.fresh_state b) in
    let exit = Nfa.Builder.fresh_state b in
    Array.iteri
      (fun s row ->
        Array.iteri (fun i target -> Nfa.Builder.add_edge b mapped.(s) (Nfa.LEv alphabet_arr.(i)) mapped.(target)) row;
        if d.sd_accept.(s) then Nfa.Builder.add_eps b mapped.(s) exit)
      d.sd_next;
    (mapped.(d.sd_start), exit)
  in
  let start, accept = build expr in
  Nfa.Builder.freeze b ~start ~accept

(* ------------------------------------------------------------------ *)
(* Subset construction with mask transparency. *)

let determinize ~alphabet (nfa : Nfa.t) =
  let alphabet_set = IntSet.of_list alphabet in
  let alphabet_arr = Array.of_list (IntSet.elements alphabet_set) in
  let module SetMap = Map.Make (Nfa.IntSet) in
  let ids = ref SetMap.empty in
  let order = ref [] in  (* discovery order, reversed *)
  let counter = ref 0 in
  let queue = Queue.create () in
  let intern set =
    match SetMap.find_opt set !ids with
    | Some id -> id
    | None ->
        let id = !counter in
        incr counter;
        ids := SetMap.add set id !ids;
        order := set :: !order;
        Queue.add (set, id) queue;
        id
  in
  let start_set = Nfa.closure nfa (Nfa.IntSet.singleton nfa.Nfa.start) in
  let start = intern start_set in
  let transitions = Hashtbl.create 64 in  (* id -> (Sym.t * int) list, reversed *)
  let accepts = Hashtbl.create 64 in
  let pendings = Hashtbl.create 64 in
  while not (Queue.is_empty queue) do
    let set, id = Queue.take queue in
    Hashtbl.replace accepts id (Nfa.IntSet.mem nfa.Nfa.accept set);
    let pending = Nfa.pending_masks nfa set in
    Hashtbl.replace pendings id pending;
    let add sym target_set =
      if not (Nfa.IntSet.is_empty target_set) then begin
        let target = intern target_set in
        let existing = Option.value (Hashtbl.find_opt transitions id) ~default:[] in
        Hashtbl.replace transitions id ((sym, target) :: existing)
      end
    in
    Array.iter
      (fun e -> add (Sym.Ev e) (Nfa.closure nfa (Nfa.move_event nfa set e)))
      alphabet_arr;
    (* Pseudo-events consume no input: only positions advanced through a
       guard are closed; survivors are kept as-is so the epsilon paths
       leading back into the guard do not resurrect a thread the [False]
       just killed (see {!Nfa.non_waiting}). *)
    List.iter
      (fun m ->
        let stayed = Nfa.non_waiting nfa set m in
        let advanced = Nfa.closure nfa (Nfa.guard_targets nfa set m) in
        add (Sym.MTrue m) (Nfa.IntSet.union advanced stayed);
        add (Sym.MFalse m) stayed)
      pending
  done;
  let n = !counter in
  let mask_ids =
    Hashtbl.fold (fun _ pending acc -> List.fold_left (fun acc m -> IntSet.add m acc) acc pending)
      pendings IntSet.empty
  in
  let states =
    Array.init n (fun id ->
        let trans =
          Option.value (Hashtbl.find_opt transitions id) ~default:[]
          |> List.sort (fun (a, _) (b, _) -> Sym.compare a b)
          |> Array.of_list
        in
        {
          Fsm.statenum = id;
          accept = Hashtbl.find accepts id;
          pending = Hashtbl.find pendings id;
          trans;
        })
  in
  Fsm.make ~states ~start ~alphabet:alphabet_set ~mask_ids

let compile ~alphabet ?(anchored = false) expr =
  let wrapped = if anchored then expr else Ast.Seq (Ast.Star Ast.Any, expr) in
  determinize ~alphabet (thompson ~alphabet wrapped)

let of_source ?(raw = false) env ~alphabet text =
  match Parser.parse env text with
  | Error e -> Error (Format.asprintf "%a" Parser.pp_error e)
  | Ok (anchored, expr) -> begin
      (* Cross-class references (§8 inter-object triggers) may bring event
         ids from other classes' alphabets; the machine's alphabet is the
         union (and so is what [any] expands to for such triggers). *)
      let alphabet = List.sort_uniq Int.compare (alphabet @ Ast.events expr) in
      match compile ~alphabet ~anchored expr with
      | fsm ->
          let fsm =
            if raw then fsm
            else Minimize.simplify fsm |> Minimize.prune_mask_states |> Minimize.trim
          in
          Ok (anchored, expr, fsm)
      | exception Unsupported msg -> Error msg
    end
