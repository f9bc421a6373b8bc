(* Table-driven event-language semantics at the session level: for each
   (expression, event stream) pair, the number of trigger firings must
   match, on every kind of activation. E/F/G are the class's user events.
   A persistent activation gets one transaction per event; a local rule
   (§8) sees the whole stream in one transaction; a monitor on a volatile
   object sees it through [post_self] from a method. The [fires] column
   is the one oracle for all three. *)

module Session = Ode.Session
module Dsl = Ode.Dsl

type case = {
  label : string;
  expr : string;
  stream : string;  (* one char per event: 'E' 'F' 'G' *)
  fires : int;
}

(* Remember: unless anchored with ^, expressions match subsequences ending
   at the current event (implicit ( *any ) prefix), and perpetual triggers
   re-fire on every accepting event. *)
let cases =
  [
    { label = "basic"; expr = "E"; stream = "EFE"; fires = 2 };
    { label = "basic no match"; expr = "G"; stream = "EEFF"; fires = 0 };
    { label = "sequence adjacency"; expr = "E, F"; stream = "EF"; fires = 1 };
    { label = "sequence broken"; expr = "E, F"; stream = "EGF"; fires = 0 };
    { label = "sequence repeats"; expr = "E, F"; stream = "EFEF"; fires = 2 };
    { label = "union"; expr = "E || F"; stream = "EFG"; fires = 2 };
    { label = "relative ignores gaps"; expr = "relative(E, F)"; stream = "EGGF"; fires = 1 };
    { label = "relative re-fires"; expr = "relative(E, F)"; stream = "EFF"; fires = 2 };
    { label = "relative needs order"; expr = "relative(E, F)"; stream = "FE"; fires = 0 };
    { label = "relative three-part"; expr = "relative(E, F, G)"; stream = "EGFGG"; fires = 2 };
    { label = "star zero width arms"; expr = "*F, E"; stream = "E"; fires = 1 };
    { label = "star consumes"; expr = "E, *F, G"; stream = "EFFFG"; fires = 1 };
    { label = "plus needs one"; expr = "E, +F, G"; stream = "EG"; fires = 0 };
    { label = "plus satisfied"; expr = "E, +F, G"; stream = "EFG"; fires = 1 };
    { label = "opt present"; expr = "E, ?F, G"; stream = "EFG"; fires = 1 };
    { label = "opt absent"; expr = "E, ?F, G"; stream = "EG"; fires = 1 };
    { label = "any matches all"; expr = "any, any"; stream = "EF"; fires = 1 };
    (* 'any, any' over n>=2 events: fires at every event from the 2nd. *)
    { label = "any window slides"; expr = "any, any"; stream = "EFG"; fires = 2 };
    { label = "intersection"; expr = "(E, F) && (any, F)"; stream = "EF"; fires = 1 };
    { label = "intersection empty"; expr = "(E, F) && (G, F)"; stream = "EFGF"; fires = 0 };
    (* !E as a single-event complement: any single event that is not E...
       NB unanchored semantics: a subsequence matching !E ends at every
       event whose 1-suffix is F or G, and also longer suffixes, so count
       events where SOME suffix matches. !E matches epsilon too (the empty
       string is not E), so it accepts at every posting including the
       first E (the empty suffix matches). *)
    { label = "complement is subtle"; expr = "!E"; stream = "E"; fires = 1 };
    { label = "anchored pair"; expr = "^ E, F"; stream = "EF"; fires = 1 };
    { label = "anchored wrong start dies"; expr = "^ E, F"; stream = "FEF"; fires = 0 };
    { label = "anchored once only"; expr = "^ E, F"; stream = "EFEF"; fires = 1 };
    (* With the implicit prefix, the epsilon suffix matches at every
       posted event. *)
    { label = "empty matches everywhere"; expr = "empty"; stream = "EEE"; fires = 3 };
    { label = "nested groups"; expr = "(E || F), (F || G)"; stream = "EG"; fires = 1 };
    { label = "three in a row"; expr = "E, E, E"; stream = "EEEE"; fires = 2 };
    (* M is a mask that always holds. A machine whose start state is a
       mask state settles when it is activated, before any event. *)
    { label = "mask at start, anchored"; expr = "^ (empty & M), E"; stream = "EE"; fires = 1 };
    { label = "mask at start"; expr = "empty & M"; stream = "EFE"; fires = 3 };
    { label = "mask after event"; expr = "E & M, F"; stream = "EFEGF"; fires = 1 };
  ]

let run_case kind { label; expr; stream; fires } () =
  let env = Session.create ~store:kind () in
  let count = ref 0 in
  Session.define_class env ~name:"C"
    ~fields:[ ("x", Dsl.int 0) ]
    ~methods:
      [
        ( "post",
          fun ctx args ->
            ctx.Session.post_self (Dsl.nth_str args 0);
            Dsl.null );
      ]
    ~events:[ Dsl.user_event "E"; Dsl.user_event "F"; Dsl.user_event "G" ]
    ~masks:[ ("M", fun _ _ -> true) ]
    ~triggers:
      [ Dsl.trigger "T" ~perpetual:true ~event:expr ~action:(fun _ _ -> incr count) ]
      (* the "intersection empty" case deliberately defines a dead trigger,
         which the define-time analyzer would otherwise reject *)
    ~allow_lint_errors:true ();
  let check what =
    Alcotest.(check int) (Printf.sprintf "%s (%s): %s over %s" label what expr stream) fires !count;
    count := 0
  in
  let events = List.init (String.length stream) (fun i -> String.make 1 stream.[i]) in
  let obj = Session.with_txn env (fun txn -> Session.pnew env txn ~cls:"C" ()) in
  Session.with_txn env (fun txn -> ignore (Session.activate env txn obj ~trigger:"T" ~args:[]));
  List.iter (fun e -> Session.with_txn env (fun txn -> Session.post_event env txn obj e)) events;
  check "persistent";
  Session.with_txn env (fun txn ->
      let obj = Session.pnew env txn ~cls:"C" () in
      Session.activate_local env txn obj ~trigger:"T" ~args:[];
      List.iter (Session.post_event env txn obj) events);
  check "local";
  let v = Session.Volatile.vnew env ~cls:"C" () in
  Session.Volatile.attach env v ~event:expr
    ~masks:[ ("M", fun _ -> true) ]
    ~action:(fun _ -> incr count)
    ();
  List.iter (fun e -> ignore (Session.Volatile.invoke env v "post" [ Dsl.str e ])) events;
  check "volatile"

let suite =
  List.concat_map
    (fun case ->
      [
        Alcotest.test_case (case.label ^ " (mem)") `Quick (run_case `Mem case);
        Alcotest.test_case (case.label ^ " (disk)") `Quick (run_case `Disk case);
      ])
    cases
