type site =
  | Page_read
  | Page_write
  | Page_alloc
  | Pool_evict
  | Wal_flush
  | Lock_acquire
  | Ship

type action = Fail | Crash | Torn of float

type selector =
  | At of int
  | Nth of site * int
  | Every of { site : site; period : int; phase : int }
  | Chance of { site : site option; rate : float; salt : int }

type rule = { sel : selector; act : action }

type plan = rule list

exception Injected_fault of { point : int; site : site }

exception Injected_crash of { point : int; site : site }

let all_sites = [ Page_read; Page_write; Page_alloc; Pool_evict; Wal_flush; Lock_acquire; Ship ]

let site_index = function
  | Page_read -> 0
  | Page_write -> 1
  | Page_alloc -> 2
  | Pool_evict -> 3
  | Wal_flush -> 4
  | Lock_acquire -> 5
  | Ship -> 6

type t = {
  mutable rules : rule list;
  mutable point : int;
  counts : int array;  (* per site *)
  mutable fired_rev : (int * site * action) list;
  mutable crashed : bool;
}

let create ?(plan = []) () =
  let counts = Array.make (List.length all_sites) 0 in
  { rules = plan; point = 0; counts; fired_rev = []; crashed = false }

let arm t plan = t.rules <- plan

let reset t =
  t.point <- 0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.fired_rev <- [];
  t.crashed <- false

let point t = t.point

let site_count t site = t.counts.(site_index site)

let fired t = List.rev t.fired_rev

(* SplitMix64 finalizer: a pure, well-mixed hash of (salt, point) giving a
   deterministic uniform draw for [Chance] rules without any mutable PRNG
   state — replaying a plan never depends on how often it was consulted. *)
let chance_draw ~salt ~pt =
  let z = Int64.add (Int64.mul (Int64.of_int salt) 0x9E3779B97F4A7C15L) (Int64.of_int pt) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let matches ~site ~pt ~nth rule =
  match rule.sel with
  | At n -> n = pt
  | Nth (s, n) -> s = site && n = nth
  | Every { site = s; period; phase } ->
      s = site && period > 0 && nth >= phase && (nth - phase) mod period = 0
  | Chance { site = s; rate; salt } ->
      (match s with None -> true | Some s -> s = site) && chance_draw ~salt ~pt < rate

let check t site =
  t.point <- t.point + 1;
  let i = site_index site in
  t.counts.(i) <- t.counts.(i) + 1;
  let pt = t.point in
  if t.crashed then raise (Injected_crash { point = pt; site });
  let nth = t.counts.(i) in
  match List.find_opt (matches ~site ~pt ~nth) t.rules with
  | None -> `Proceed
  | Some rule ->
      t.fired_rev <- (pt, site, rule.act) :: t.fired_rev;
      (match rule.act with
      | Fail -> raise (Injected_fault { point = pt; site })
      | Crash ->
          t.crashed <- true;
          raise (Injected_crash { point = pt; site })
      | Torn f -> `Torn (Float.max 0.0 (Float.min 1.0 f)))

let torn_crash t site =
  t.crashed <- true;
  raise (Injected_crash { point = t.point; site })

(* ------------------------------------------------------------------ *)
(* Plan syntax. *)

let site_to_string = function
  | Page_read -> "page_read"
  | Page_write -> "page_write"
  | Page_alloc -> "page_alloc"
  | Pool_evict -> "pool_evict"
  | Wal_flush -> "wal_flush"
  | Lock_acquire -> "lock_acquire"
  | Ship -> "ship"

let site_of_string s =
  List.find_opt (fun site -> String.equal (site_to_string site) s) all_sites

let action_to_string = function
  | Fail -> "fail"
  | Crash -> "crash"
  | Torn f -> Printf.sprintf "torn(%g)" f

let selector_to_string = function
  | At n -> string_of_int n
  | Nth (site, n) -> Printf.sprintf "%s:%d" (site_to_string site) n
  | Every { site; period; phase } ->
      if phase = 1 then Printf.sprintf "%s%%%d" (site_to_string site) period
      else Printf.sprintf "%s%%%d+%d" (site_to_string site) period phase
  | Chance { site; rate; salt } ->
      let name = match site with None -> "*" | Some s -> site_to_string s in
      if salt = 0 then Printf.sprintf "%s~%g" name rate
      else Printf.sprintf "%s~%g#%d" name rate salt

let rule_to_string r = Printf.sprintf "%s@%s" (action_to_string r.act) (selector_to_string r.sel)

let plan_to_string plan = String.concat ";" (List.map rule_to_string plan)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_action s =
  match String.lowercase_ascii (String.trim s) with
  | "fail" -> Ok Fail
  | "crash" -> Ok Crash
  | "torn" -> Ok (Torn 0.5)
  | a ->
      let n = String.length a in
      if n > 6 && String.sub a 0 5 = "torn(" && a.[n - 1] = ')' then begin
        match float_of_string_opt (String.sub a 5 (n - 6)) with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok (Torn f)
        | Some _ -> Error (Printf.sprintf "torn fraction out of [0,1]: %s" a)
        | None -> Error (Printf.sprintf "bad torn fraction: %s" a)
      end
      else Error (Printf.sprintf "unknown action %S (want fail, crash or torn(F))" s)

let split_once c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let parse_site name =
  if String.equal name "*" then Ok None
  else
    match site_of_string name with
    | Some s -> Ok (Some s)
    | None ->
        Error
          (Printf.sprintf "unknown site %S (want %s or *)" name
             (String.concat ", " (List.map site_to_string all_sites)))

let require_site name =
  let* site = parse_site name in
  match site with
  | Some s -> Ok s
  | None -> Error "site * is only valid with a ~chance selector"

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad %s: %S" what s)

let parse_selector s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok (At n)
  | Some n -> Error (Printf.sprintf "I/O points are numbered from 1, got %d" n)
  | None -> begin
      match split_once '~' s with
      | name, Some rest ->
          let* site = parse_site (String.trim name) in
          let rate_s, salt_s = split_once '#' rest in
          let* salt = match salt_s with None -> Ok 0 | Some s -> parse_int "salt" s in
          (match float_of_string_opt (String.trim rate_s) with
          | Some rate when rate >= 0.0 && rate <= 1.0 -> Ok (Chance { site; rate; salt })
          | _ -> Error (Printf.sprintf "bad chance rate: %S" rate_s))
      | _, None -> begin
          match split_once '%' s with
          | name, Some rest ->
              let* site = require_site (String.trim name) in
              let period_s, phase_s = split_once '+' rest in
              let* period = parse_int "period" period_s in
              let* phase = match phase_s with None -> Ok 1 | Some p -> parse_int "phase" p in
              if period = 0 then Error "period must be positive"
              else Ok (Every { site; period; phase = max 1 phase })
          | _, None -> begin
              match split_once ':' s with
              | name, Some nth_s ->
                  let* site = require_site (String.trim name) in
                  let* nth = parse_int "occurrence" nth_s in
                  if nth = 0 then Error "occurrences are numbered from 1"
                  else Ok (Nth (site, nth))
              | name, None ->
                  (* bare site: every occurrence *)
                  let* site = require_site (String.trim name) in
                  Ok (Every { site; period = 1; phase = 1 })
            end
        end
    end

let parse_rule s =
  match split_once '@' s with
  | _, None -> Error (Printf.sprintf "rule %S has no @selector" s)
  | action_s, Some sel_s ->
      let* act = parse_action action_s in
      let* sel = parse_selector sel_s in
      Ok { sel; act }

let plan_of_string s =
  let pieces =
    String.split_on_char ';' s
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if pieces = [] then Error "empty plan"
  else
    List.fold_left
      (fun acc piece ->
        let* plan = acc in
        let* rule = parse_rule piece in
        Ok (rule :: plan))
      (Ok []) pieces
    |> Result.map List.rev
