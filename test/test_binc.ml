(* Binary codec: round-trips, edge values, corruption handling. *)

module Binc = Ode_util.Binc

let roundtrip_ints () =
  let cases = [ 0; 1; -1; 42; -42; 127; 128; 300; -300; max_int; min_int; max_int - 1; min_int + 1 ] in
  List.iter
    (fun n ->
      let w = Binc.writer () in
      Binc.write_varint w n;
      let r = Binc.reader (Binc.contents w) in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n (Binc.read_varint r))
    cases

let roundtrip_uints () =
  let cases = [ 0; 1; 127; 128; 16384; max_int ] in
  List.iter
    (fun n ->
      let w = Binc.writer () in
      Binc.write_uvarint w n;
      let r = Binc.reader (Binc.contents w) in
      Alcotest.(check int) (Printf.sprintf "uvarint %d" n) n (Binc.read_uvarint r))
    cases

let negative_uvarint_rejected () =
  let w = Binc.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Binc.write_uvarint: negative") (fun () ->
      Binc.write_uvarint w (-1))

let roundtrip_floats () =
  let cases = [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; Float.max_float; Float.min_float; 1e-300 ] in
  List.iter
    (fun f ->
      let w = Binc.writer () in
      Binc.write_float w f;
      let r = Binc.reader (Binc.contents w) in
      let read = Binc.read_float r in
      Alcotest.(check bool)
        (Printf.sprintf "float %h" f)
        true
        (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float read)))
    cases;
  (* NaN round-trips bit-exactly. *)
  let w = Binc.writer () in
  Binc.write_float w Float.nan;
  let read = Binc.read_float (Binc.reader (Binc.contents w)) in
  Alcotest.(check bool) "nan" true (Float.is_nan read)

let roundtrip_mixed () =
  let w = Binc.writer () in
  Binc.write_string w "hello";
  Binc.write_bool w true;
  Binc.write_varint w (-7);
  Binc.write_list w (Binc.write_string w) [ "a"; ""; "long string with \x00 bytes" ];
  Binc.write_bytes w (Bytes.of_string "\xff\x00\xfe");
  let r = Binc.reader (Binc.contents w) in
  Alcotest.(check string) "string" "hello" (Binc.read_string r);
  Alcotest.(check bool) "bool" true (Binc.read_bool r);
  Alcotest.(check int) "int" (-7) (Binc.read_varint r);
  Alcotest.(check (list string)) "list" [ "a"; ""; "long string with \x00 bytes" ]
    (Binc.read_list r (fun () -> Binc.read_string r));
  Alcotest.(check string) "bytes" "\xff\x00\xfe" (Bytes.to_string (Binc.read_bytes r));
  Alcotest.(check bool) "at end" true (Binc.at_end r)

let truncation_raises () =
  let w = Binc.writer () in
  Binc.write_string w "a long enough string";
  let full = Binc.contents w in
  for cut = 0 to Bytes.length full - 1 do
    let truncated = Bytes.sub full 0 cut in
    let r = Binc.reader truncated in
    match Binc.read_string r with
    | _ -> Alcotest.failf "truncation at %d not detected" cut
    | exception Binc.Corrupt _ -> ()
  done

let skip_and_string_equals () =
  let w = Binc.writer () in
  List.iter (Binc.write_string w) [ "credLim"; "credLi"; ""; "日本" ];
  Binc.write_float w 1.5;
  let full = Binc.contents w in
  let r = Binc.reader full in
  Alcotest.(check bool) "equal" true (Binc.string_equals r "credLim");
  Alcotest.(check bool) "shorter stored" false (Binc.string_equals r "credLim");
  Alcotest.(check bool) "empty" true (Binc.string_equals r "");
  Alcotest.(check bool) "multibyte" true (Binc.string_equals r "日本");
  Binc.skip r 8;
  Alcotest.(check bool) "skipped to the end" true (Binc.at_end r);
  (match Binc.skip r 1 with
  | () -> Alcotest.fail "skip past the end not detected"
  | exception Binc.Corrupt _ -> ());
  let truncated = Binc.reader (Bytes.sub full 0 5) in
  match Binc.string_equals truncated "credLim" with
  | _ -> Alcotest.fail "truncated string not detected"
  | exception Binc.Corrupt _ -> ()

let qcheck_varint =
  QCheck.Test.make ~name:"varint roundtrips" ~count:1000 QCheck.int (fun n ->
      let w = Binc.writer () in
      Binc.write_varint w n;
      Binc.read_varint (Binc.reader (Binc.contents w)) = n)

let qcheck_string =
  QCheck.Test.make ~name:"string roundtrips" ~count:500 QCheck.string (fun s ->
      let w = Binc.writer () in
      Binc.write_string w s;
      Binc.read_string (Binc.reader (Binc.contents w)) = s)

let suite =
  [
    Alcotest.test_case "varint edge values" `Quick roundtrip_ints;
    Alcotest.test_case "uvarint edge values" `Quick roundtrip_uints;
    Alcotest.test_case "uvarint rejects negatives" `Quick negative_uvarint_rejected;
    Alcotest.test_case "float bit-exact roundtrip" `Quick roundtrip_floats;
    Alcotest.test_case "mixed payload roundtrip" `Quick roundtrip_mixed;
    Alcotest.test_case "every truncation detected" `Quick truncation_raises;
    Alcotest.test_case "skip and string_equals" `Quick skip_and_string_equals;
    QCheck_alcotest.to_alcotest qcheck_varint;
    QCheck_alcotest.to_alcotest qcheck_string;
  ]
