(* Dynamic values: codec round-trip (property), ordering laws, accessors,
   and object records. *)

module Value = Ode_objstore.Value
module Objrec = Ode_objstore.Objrec
module Oid = Ode_objstore.Oid

let value_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          let leaf =
            oneof
              [
                return Value.Null;
                map (fun b -> Value.Bool b) bool;
                map (fun i -> Value.Int i) int;
                map (fun f -> Value.Float f) float;
                map (fun s -> Value.Str s) (string_size (int_bound 12));
                map (fun i -> Value.Oid (Oid.of_int i)) (int_bound 1_000_000);
              ]
          in
          if size <= 1 then leaf
          else
            oneof
              [ leaf; map (fun vs -> Value.List vs) (list_size (int_bound 4) (self (size / 2))) ])
        size)

let arbitrary_value = QCheck.make ~print:Value.to_string value_gen

(* ------------------------------------------------------------------ *)
(* In-place field access against the decode-based reference. *)

module Binc = Ode_util.Binc

let multibyte_string =
  let open QCheck.Gen in
  map (String.concat "") (list_size (int_bound 4) (oneofl [ "a"; "Z9"; "é"; "日本"; "🙂"; "ß" ]))

let rec multibyte_value size =
  let open QCheck.Gen in
  let leaf = oneof [ value_gen; map (fun s -> Value.Str s) multibyte_string ] in
  if size <= 1 then leaf
  else
    oneof [ leaf; map (fun vs -> Value.List vs) (list_size (int_bound 3) (multibyte_value (size / 2))) ]

(* A record with distinct multibyte field names, and a field name it
   lacks. *)
let record_gen =
  let open QCheck.Gen in
  let* cls = multibyte_string in
  let* names = list_size (int_bound 6) multibyte_string in
  let names = List.sort_uniq String.compare names in
  let* values = flatten_l (List.map (fun _ -> multibyte_value 8) names) in
  return (Objrec.make ~cls ~fields:(List.combine names values), "?" ^ String.concat "" names)

let arbitrary_record =
  QCheck.make
    ~print:(fun ((r, _), v) -> Format.asprintf "%a with %a" Objrec.pp r Value.pp v)
    QCheck.Gen.(pair record_gen (multibyte_value 8))

let seeded test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Seeds.base ~default:0x0B1EC7 |]) test

let qcheck_payload_reads =
  QCheck.Test.make ~name:"cls_of_payload/field_of_payload agree with decode" ~count:500
    arbitrary_record (fun ((record, _), _) ->
      let payload = Objrec.encode record in
      let reference = Objrec.decode payload in
      String.equal (Objrec.cls_of_payload payload) reference.Objrec.cls
      && List.for_all
           (fun name ->
             Value.equal (Objrec.field_of_payload payload name) (Objrec.get reference name))
           (Objrec.field_names reference))

let qcheck_with_field =
  QCheck.Test.make ~name:"with_field = encode (set (decode p) f v)" ~count:500 arbitrary_record
    (fun ((record, _), v) ->
      let payload = Objrec.encode record in
      List.for_all
        (fun name ->
          Bytes.equal
            (Objrec.with_field payload name v)
            (Objrec.encode (Objrec.set (Objrec.decode payload) name v)))
        (Objrec.field_names record))

let raises_not_found f = match f () with _ -> false | exception Not_found -> true

let qcheck_unknown_field =
  QCheck.Test.make ~name:"unknown field raises Not_found" ~count:300 arbitrary_record
    (fun ((record, unknown), v) ->
      let payload = Objrec.encode record in
      raises_not_found (fun () -> Objrec.field_of_payload payload unknown)
      && raises_not_found (fun () -> Objrec.with_field payload unknown v))

let raises_corrupt f = match f () with _ -> false | exception Binc.Corrupt _ -> true

(* Every strict prefix: a lookup that has to scan the whole record — an
   unknown field, or the last one — meets the cut and raises [Corrupt],
   as [decode] does. *)
let qcheck_truncated =
  QCheck.Test.make ~name:"truncated payload raises Corrupt" ~count:200 arbitrary_record
    (fun ((record, unknown), v) ->
      let payload = Objrec.encode record in
      let last = List.rev (Objrec.field_names record) in
      List.for_all
        (fun len ->
          let cut = Bytes.sub payload 0 len in
          raises_corrupt (fun () -> Objrec.decode cut)
          && raises_corrupt (fun () -> Objrec.field_of_payload cut unknown)
          &&
          match last with
          | [] -> true
          | name :: _ ->
              raises_corrupt (fun () -> Objrec.field_of_payload cut name)
              && raises_corrupt (fun () -> Objrec.with_field cut name v))
        (List.init (Bytes.length payload) Fun.id))

(* The activation index's reader skips a state's args: it must read the
   same fields as [decode], whatever the args, and pass over phoenix
   entries. *)
module Trigger_state = Ode_trigger.Trigger_state

let arbitrary_state =
  let open QCheck.Gen in
  let oid = map Oid.of_int (int_bound 1_000_000) in
  let gen =
    let* triggernum = int_bound 64 and* trigobj = oid and* trigobjtype = multibyte_string in
    let* statenum = oneof [ int_bound 50; return Trigger_state.dead_state ] in
    let* args = list_size (int_bound 4) (multibyte_value 8) in
    let* anchors = list_size (int_bound 3) oid in
    return { Trigger_state.triggernum; trigobj; trigobjtype; statenum; args; anchors }
  in
  QCheck.make ~print:(Format.asprintf "%a" Trigger_state.pp) gen

let qcheck_state_index_view =
  QCheck.Test.make ~name:"trigger state decode_index agrees with decode" ~count:500
    arbitrary_state (fun st ->
      let payload = Trigger_state.encode st in
      let phoenix =
        Trigger_state.encode_phoenix
          {
            Trigger_state.ph_cls = st.trigobjtype;
            ph_triggernum = st.triggernum;
            ph_obj = st.trigobj;
            ph_args = st.args;
            ph_ev_args = [];
          }
      in
      Option.is_none (Trigger_state.decode_index phoenix)
      &&
      match (Trigger_state.decode payload, Trigger_state.decode_index payload) with
      | Trigger_state.State full, Some iv ->
          Trigger_state.equal full st
          && iv.iv_triggernum = st.triggernum
          && Oid.equal iv.iv_trigobj st.trigobj
          && String.equal iv.iv_trigobjtype st.trigobjtype
          && iv.iv_statenum = st.statenum
          && List.equal Oid.equal iv.iv_anchors st.anchors
      | (Trigger_state.State _ | Trigger_state.Phoenix _), _ -> false)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrips" ~count:1000 arbitrary_value (fun v ->
      Value.equal v (Value.decode (Value.encode v)))

let qcheck_compare_refl =
  QCheck.Test.make ~name:"compare v v = 0" ~count:500 arbitrary_value (fun v ->
      Value.compare v v = 0)

let qcheck_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      Value.compare a b = -Value.compare b a)

let qcheck_equal_consistent =
  QCheck.Test.make ~name:"equal iff compare = 0" ~count:500
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0))

let accessors () =
  Alcotest.(check int) "to_int" 5 (Value.to_int (Value.Int 5));
  Alcotest.(check (float 0.0)) "to_float widens ints" 5.0 (Value.to_float (Value.Int 5));
  Alcotest.(check string) "to_str" "x" (Value.to_str (Value.Str "x"));
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.Bool true));
  (match Value.to_int (Value.Str "no") with
  | _ -> Alcotest.fail "expected Type_error"
  | exception Value.Type_error _ -> ());
  match Value.to_list Value.Null with
  | _ -> Alcotest.fail "expected Type_error"
  | exception Value.Type_error _ -> ()

let objrec_roundtrip () =
  let record =
    Objrec.make ~cls:"CredCard"
      ~fields:
        [
          ("credLim", Value.Float 1000.0);
          ("currBal", Value.Float 12.5);
          ("issuedTo", Value.Oid (Oid.of_int 7));
          ("marks", Value.List [ Value.Str "late" ]);
        ]
  in
  let decoded = Objrec.decode (Objrec.encode record) in
  Alcotest.(check bool) "roundtrip" true (Objrec.equal record decoded)

let objrec_operations () =
  let record = Objrec.make ~cls:"C" ~fields:[ ("a", Value.Int 1); ("b", Value.Int 2) ] in
  Alcotest.(check int) "get" 1 (Value.to_int (Objrec.get record "a"));
  let updated = Objrec.set record "a" (Value.Int 9) in
  Alcotest.(check int) "set" 9 (Value.to_int (Objrec.get updated "a"));
  Alcotest.(check int) "set preserves others" 2 (Value.to_int (Objrec.get updated "b"));
  Alcotest.(check int) "original unchanged" 1 (Value.to_int (Objrec.get record "a"));
  (match Objrec.get record "zzz" with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ());
  (match Objrec.set record "zzz" Value.Null with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ());
  match Objrec.make ~cls:"C" ~fields:[ ("a", Value.Null); ("a", Value.Null) ] with
  | _ -> Alcotest.fail "expected duplicate-field rejection"
  | exception Invalid_argument _ -> ()

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_compare_refl;
    QCheck_alcotest.to_alcotest qcheck_compare_antisym;
    QCheck_alcotest.to_alcotest qcheck_equal_consistent;
    Alcotest.test_case "accessors" `Quick accessors;
    Alcotest.test_case "objrec codec roundtrip" `Quick objrec_roundtrip;
    Alcotest.test_case "objrec field operations" `Quick objrec_operations;
    seeded qcheck_payload_reads;
    seeded qcheck_state_index_view;
    seeded qcheck_with_field;
    seeded qcheck_unknown_field;
    seeded qcheck_truncated;
  ]
