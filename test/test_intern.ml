(* eventRep interning (§5.2): unique, stable, globally distinct integers. *)

module Intern = Ode_event.Intern

let stable_assignment () =
  let reg = Intern.create () in
  let a = Intern.id reg ~cls:"CredCard" (Intern.After "Buy") in
  let b = Intern.id reg ~cls:"CredCard" (Intern.After "PayBill") in
  let a' = Intern.id reg ~cls:"CredCard" (Intern.After "Buy") in
  Alcotest.(check int) "same pair, same id" a a';
  Alcotest.(check bool) "distinct pairs, distinct ids" true (a <> b);
  Alcotest.(check int) "dense from zero" 0 (min a b);
  Alcotest.(check int) "count" 2 (Intern.count reg)

let multiple_inheritance_distinct () =
  (* The §6 lesson: per-class numbering collides when a class inherits
     events from two bases; global interning keeps them apart. *)
  let reg = Intern.create () in
  let base1_ev = Intern.id reg ~cls:"Base1" (Intern.After "f") in
  let base2_ev = Intern.id reg ~cls:"Base2" (Intern.After "g") in
  Alcotest.(check bool) "no collision across bases" true (base1_ev <> base2_ev);
  (* Same member name in two classes is still two events. *)
  let b1h = Intern.id reg ~cls:"Base1" (Intern.After "h") in
  let b2h = Intern.id reg ~cls:"Base2" (Intern.After "h") in
  Alcotest.(check bool) "per-declaring-class identity" true (b1h <> b2h)

let before_after_user_distinct () =
  let reg = Intern.create () in
  let before_f = Intern.id reg ~cls:"C" (Intern.Before "f") in
  let after_f = Intern.id reg ~cls:"C" (Intern.After "f") in
  let user_f = Intern.id reg ~cls:"C" (Intern.User "f") in
  Alcotest.(check int) "three distinct events" 3
    (List.length (List.sort_uniq compare [ before_f; after_f; user_f ]))

let reverse_lookup () =
  let reg = Intern.create () in
  let id = Intern.id reg ~cls:"C" Intern.Before_tcomplete in
  (match Intern.describe reg id with
  | Some (cls, basic) ->
      Alcotest.(check string) "class" "C" cls;
      Alcotest.(check bool) "event" true (Intern.basic_equal basic Intern.Before_tcomplete)
  | None -> Alcotest.fail "describe failed");
  Alcotest.(check string) "name" "C:before tcomplete" (Intern.name_of_id reg id);
  Alcotest.(check bool) "unknown id" true (Intern.describe reg 12345 = None)

let lookup_counter () =
  let reg = Intern.create () in
  let lookups () = Ode_util.Metrics.get (Intern.metrics reg) "lookups" in
  let before = lookups () in
  ignore (Intern.id reg ~cls:"C" (Intern.User "e"));
  ignore (Intern.find reg ~cls:"C" (Intern.User "e"));
  Alcotest.(check int) "lookups counted" (before + 2) (lookups ())

let suite =
  [
    Alcotest.test_case "stable dense assignment" `Quick stable_assignment;
    Alcotest.test_case "multiple-inheritance distinctness" `Quick multiple_inheritance_distinct;
    Alcotest.test_case "before/after/user distinct" `Quick before_after_user_distinct;
    Alcotest.test_case "reverse lookup" `Quick reverse_lookup;
    Alcotest.test_case "lookup counter" `Quick lookup_counter;
  ]
