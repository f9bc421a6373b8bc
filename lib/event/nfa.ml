type label = LEv of int | LTrue of int

type t = {
  nstates : int;
  start : int;
  accept : int;
  eps : int list array;
  edges : (label * int) list array;
}

module Builder = struct
  type builder = {
    mutable n : int;
    mutable eps_edges : (int * int) list;
    mutable labelled : (int * label * int) list;
  }

  type t = builder

  let create () = { n = 0; eps_edges = []; labelled = [] }

  let fresh_state b =
    let s = b.n in
    b.n <- s + 1;
    s

  let add_eps b src dst = b.eps_edges <- (src, dst) :: b.eps_edges

  let add_edge b src label dst = b.labelled <- (src, label, dst) :: b.labelled

  let freeze b ~start ~accept =
    let eps = Array.make b.n [] in
    List.iter (fun (src, dst) -> eps.(src) <- dst :: eps.(src)) b.eps_edges;
    let edges = Array.make b.n [] in
    List.iter (fun (src, label, dst) -> edges.(src) <- (label, dst) :: edges.(src)) b.labelled;
    { nstates = b.n; start; accept; eps; edges }
end

module IntSet = Set.Make (Int)

let closure t set =
  let rec visit state acc =
    if IntSet.mem state acc then acc
    else List.fold_left (fun acc next -> visit next acc) (IntSet.add state acc) t.eps.(state)
  in
  IntSet.fold visit set IntSet.empty

let move_event t set e =
  IntSet.fold
    (fun state acc ->
      List.fold_left
        (fun acc (label, dst) -> match label with LEv e' when e' = e -> IntSet.add dst acc | _ -> acc)
        acc t.edges.(state))
    set IntSet.empty

let waits_on t state m =
  List.exists (fun (label, _) -> match label with LTrue m' -> m' = m | LEv _ -> false) t.edges.(state)

let guard_targets t set m =
  IntSet.fold
    (fun state acc ->
      List.fold_left
        (fun acc (label, dst) ->
          match label with LTrue m' when m' = m -> IntSet.add dst acc | _ -> acc)
        acc t.edges.(state))
    set IntSet.empty

let non_waiting t set m = IntSet.filter (fun state -> not (waits_on t state m)) set

(* ---------------- reachability ---------------- *)

let successors t state =
  t.eps.(state) @ List.map snd t.edges.(state)

let reachable t =
  let rec visit state acc =
    if IntSet.mem state acc then acc
    else List.fold_left (fun acc next -> visit next acc) (IntSet.add state acc) (successors t state)
  in
  visit t.start IntSet.empty

let pending_masks t set =
  let masks =
    IntSet.fold
      (fun state acc ->
        List.fold_left
          (fun acc (label, _) -> match label with LTrue m -> IntSet.add m acc | LEv _ -> acc)
          acc t.edges.(state))
      set IntSet.empty
  in
  IntSet.elements masks
