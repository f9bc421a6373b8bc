(* WAL: record codec, flush/durability boundary, torn writes. *)

module Wal = Ode_storage.Wal
module Rid = Ode_storage.Rid
module Prng = Ode_util.Prng

let b = Bytes.of_string

let sample_records =
  [
    Wal.Begin 1;
    Wal.Op (1, Wal.Insert (Rid.of_int 0, b "hello"));
    Wal.Op (1, Wal.Update (Rid.of_int 0, b "hello", b "world"));
    Wal.Op (1, Wal.Delete (Rid.of_int 0, b "world"));
    Wal.Commit 1;
    Wal.Begin 2;
    Wal.Op (2, Wal.Insert (Rid.of_int 1, b ""));
    Wal.Abort 2;
    Wal.Checkpoint [ (Rid.of_int 3, b "ckpt"); (Rid.of_int 9, b "") ];
    Wal.Begin 3;
    Wal.Op (3, Wal.Insert (Rid.of_int 2, b "grouped"));
    Wal.Commit_group [ 3; 4; 5 ];
    Wal.Commit_group [];
  ]

let record_equal a b =
  (* Structural equality is fine: records contain only ints and bytes. *)
  a = b

let new_wal () = Wal.create ~flush_spin:0 ~flush_sleep:0 ~segment_bytes:0 ()

let roundtrip () =
  let wal = new_wal () in
  List.iter (Wal.append wal) sample_records;
  Wal.flush wal;
  let decoded = Wal.durable_records wal in
  Alcotest.(check int) "count" (List.length sample_records) (List.length decoded);
  List.iter2
    (fun expected actual ->
      if not (record_equal expected actual) then
        Alcotest.failf "mismatch: %a vs %a" Wal.pp_record expected Wal.pp_record actual)
    sample_records decoded

let durability_boundary () =
  let wal = new_wal () in
  Wal.append wal (Wal.Begin 1);
  Wal.append wal (Wal.Commit 1);
  Alcotest.(check int) "nothing durable before flush" 0 (List.length (Wal.durable_records wal));
  Alcotest.(check int) "but visible in all_records" 2 (List.length (Wal.all_records wal));
  Wal.flush wal;
  Alcotest.(check int) "durable after flush" 2 (List.length (Wal.durable_records wal));
  Wal.append wal (Wal.Begin 2);
  Alcotest.(check int) "tail not durable" 2 (List.length (Wal.durable_records wal));
  Alcotest.(check int) "tail in all_records" 3 (List.length (Wal.all_records wal))

let torn_write () =
  let wal = new_wal () in
  List.iter (Wal.append wal) sample_records;
  Wal.flush wal;
  let full = Wal.durable_bytes wal in
  (* Every byte-level truncation decodes to a clean prefix, never raises. *)
  for cut = 0 to Bytes.length full do
    let records = Wal.decode_records (Bytes.sub full 0 cut) in
    if List.length records > List.length sample_records then Alcotest.fail "too many records";
    List.iteri
      (fun i record ->
        if not (record_equal (List.nth sample_records i) record) then
          Alcotest.failf "cut %d: prefix record %d mismatch" cut i)
      records
  done

let random_record prng =
  let random_bytes () = Bytes.init (Prng.int prng 30) (fun _ -> Char.chr (Prng.int prng 256)) in
  match Prng.int prng 8 with
  | 0 -> Wal.Begin (Prng.int prng 100)
  | 1 -> Wal.Op (Prng.int prng 100, Wal.Insert (Rid.of_int (Prng.int prng 1000), random_bytes ()))
  | 2 ->
      Wal.Op
        (Prng.int prng 100, Wal.Update (Rid.of_int (Prng.int prng 1000), random_bytes (), random_bytes ()))
  | 3 -> Wal.Op (Prng.int prng 100, Wal.Delete (Rid.of_int (Prng.int prng 1000), random_bytes ()))
  | 4 -> Wal.Commit (Prng.int prng 100)
  | 5 -> Wal.Abort (Prng.int prng 100)
  | 6 -> Wal.Commit_group (List.init (Prng.int prng 6) (fun _ -> Prng.int prng 100))
  | _ ->
      Wal.Checkpoint
        (List.init (Prng.int prng 4) (fun i -> (Rid.of_int (100 + i), random_bytes ())))

let random_roundtrip () =
  Seeds.with_seed ~default:7 "wal.random-roundtrip" (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      for _trial = 1 to 50 do
        let records = List.init (Prng.int prng 20) (fun _ -> random_record prng) in
        let wal = new_wal () in
        List.iter (Wal.append wal) records;
        Wal.flush wal;
        if not (List.for_all2 record_equal records (Wal.durable_records wal)) then
          Alcotest.fail "random roundtrip mismatch"
      done)

let random_truncation () =
  (* Graceful rejection: a randomized log truncated at EVERY byte offset
     decodes to a clean record prefix — never raises, never invents a
     record, never reorders the surviving ones. *)
  Seeds.with_seed ~default:8 "wal.random-truncation" (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      for _trial = 1 to 12 do
        let records = List.init (1 + Prng.int prng 10) (fun _ -> random_record prng) in
        let wal = new_wal () in
        List.iter (Wal.append wal) records;
        Wal.flush wal;
        let full = Wal.durable_bytes wal in
        for cut = 0 to Bytes.length full do
          let decoded = Wal.decode_records (Bytes.sub full 0 cut) in
          if List.length decoded > List.length records then
            Alcotest.failf "cut %d: decoded more records than were written" cut;
          List.iteri
            (fun i record ->
              if not (record_equal (List.nth records i) record) then
                Alcotest.failf "cut %d: surviving record %d differs" cut i)
            decoded;
          if cut = Bytes.length full && List.length decoded <> List.length records then
            Alcotest.fail "whole log must decode completely"
        done
      done)

(* The decoded-prefix cache: durable_records resumes decoding where the
   previous call stopped instead of re-decoding the whole durable prefix.
   Interleave appends, flushes and reads and check the cached view always
   equals a from-scratch decode of the durable bytes. *)
let incremental_decode_cache () =
  Seeds.with_seed ~default:9 "wal.incremental-cache" (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      let wal = new_wal () in
      let written = ref [] in
      for _round = 1 to 20 do
        let batch = List.init (Prng.int prng 5) (fun _ -> random_record prng) in
        List.iter
          (fun record ->
            Wal.append wal record;
            written := record :: !written)
          batch;
        (* Read before the flush too: the cache must not leak the tail. *)
        let durable_now = Wal.durable_records wal in
        Wal.flush wal;
        let fresh = Wal.decode_records (Wal.durable_bytes wal) in
        let cached = Wal.durable_records wal in
        if not (List.for_all2 record_equal fresh cached) then
          Alcotest.fail "cached decode differs from fresh decode";
        Alcotest.(check int)
          "everything flushed is durable" (List.length !written) (List.length cached);
        (* A second read must come from the cache and agree. *)
        if not (List.for_all2 record_equal cached (Wal.durable_records wal)) then
          Alcotest.fail "repeated cached reads disagree";
        ignore durable_now
      done)

let suite =
  [
    Alcotest.test_case "record codec roundtrip" `Quick roundtrip;
    Alcotest.test_case "incremental decode cache" `Quick incremental_decode_cache;
    Alcotest.test_case "flush is the durability boundary" `Quick durability_boundary;
    Alcotest.test_case "torn writes decode to a clean prefix" `Quick torn_write;
    Alcotest.test_case "random record roundtrips" `Quick random_roundtrip;
    Alcotest.test_case "random logs reject every truncation" `Quick random_truncation;
  ]
