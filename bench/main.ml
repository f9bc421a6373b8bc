(* Benchmark harness for the Ode reproduction.

   One section per experiment from EXPERIMENTS.md: F1 reproduces the
   paper's Figure 1; T1..T8 quantify the paper's design claims (the paper
   has no measurement tables, so each claim becomes a table here);
   P1 measures the layered posting engine against its unoptimised
   reference configuration. Run a subset with e.g.:

     dune exec bench/main.exe -- t1 t4

   Flags: --json writes machine-readable results for the experiments that
   support recording (to BENCH_<NAME>.json when exactly one experiment is
   requested, BENCH_P1.json otherwise); --smoke shrinks quotas and axes
   for a fast CI sanity run, and sends its JSON to _build/bench-smoke/ so
   a smoke run never rewrites a recorded result.
*)

let experiments =
  [
    ("f1", Exp_f1.run);
    ("t1", Exp_t1.run);
    ("t2", Exp_t2.run);
    ("t3", Exp_t3.run);
    ("t4", Exp_t4.run);
    ("t5", Exp_t5.run);
    ("t6", Exp_t6.run);
    ("t7", Exp_t7.run);
    ("t8", Exp_t8.run);
    ("a1", Exp_a1.run);
    ("a2", Exp_a2.run);
    ("r1", Exp_r1.run);
    ("p1", Exp_p1.run);
    ("p2", Exp_p2.run);
    ("p3", Exp_p3.run);
    ("p4", Exp_p4.run);
    ("p5", Exp_p5.run);
    ("p7", Exp_p7.run);
    ("p8", Exp_p8.run);
  ]

let smoke_dir = Filename.concat "_build" "bench-smoke"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a >= 2 && String.sub a 0 2 = "--") args in
  let requested =
    match names with
    | [] -> List.map fst experiments
    | names -> List.map String.lowercase_ascii names
  in
  List.iter
    (function
      | "--json" | "--smoke" -> ()
      | flag ->
          Printf.eprintf "unknown flag %s (have: --json, --smoke)\n" flag;
          exit 1)
    flags;
  Bench_common.smoke := List.mem "--smoke" flags;
  (* With exactly one experiment requested, --json writes to that
     experiment's own file (BENCH_P2.json, ...); the historical
     BENCH_P1.json name is kept for multi-experiment runs. *)
  if List.mem "--json" flags then begin
    let name =
      match requested with
      | [ name ] -> "BENCH_" ^ String.uppercase_ascii name ^ ".json"
      | _ -> "BENCH_P1.json"
    in
    Bench_common.json_out :=
      Some
        (if !Bench_common.smoke then begin
           if not (Sys.file_exists smoke_dir) then Sys.mkdir smoke_dir 0o755;
           Filename.concat smoke_dir name
         end
         else name)
  end;
  print_endline "Ode active database reproduction - benchmark harness";
  print_endline "(paper: Lieuwen, Gehani & Arlein, ICDE 1996; see EXPERIMENTS.md)";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  Bench_common.write_json ()
