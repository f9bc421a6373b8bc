(* R1 — Recovery soak: exhaustive crash-point sweep + randomized fault
   plans (§5.5, §7).

   The paper's recovery claim — "Event roll-back is handled using
   standard transaction roll-back of the triggers' states" — is only as
   good as its behaviour under failure. This experiment drives the
   Crashlab credit-card workload through

   1. an exhaustive sweep: a crash injected at every addressable I/O
      point (plus torn-write variants of every WAL flush and a stride of
      page writes), each followed by recovery and full invariant
      checking; and
   2. a randomized soak: seeded random fault plans mixing crashes, torn
      writes and transient faults. Transient [Fail] rules are restricted
      to the lock_acquire and wal_flush sites: a transient failure on a
      data-page I/O could strike during an undo pass, which no real
      system survives without a full restart (crash + recovery covers
      that case).

   Everything is deterministic: any violation is replayable with
   [odectl faults --fault-plan PLAN]. *)

module Crashlab = Ode.Crashlab
module Faults = Ode_storage.Faults
module Prng = Ode_util.Prng
module Table = Ode_util.Table

let config = { Crashlab.default_config with txns = 16 }

let random_plan prng points =
  let torn_fraction () = float_of_int (Prng.int prng 10) /. 10.0 in
  let rule () =
    match Prng.int prng 5 with
    | 0 -> { Faults.sel = Faults.At (1 + Prng.int prng points); act = Faults.Crash }
    | 1 ->
        let site = if Prng.bool prng then Faults.Wal_flush else Faults.Page_write in
        { Faults.sel = Faults.Nth (site, 1 + Prng.int prng 12); act = Faults.Torn (torn_fraction ()) }
    | 2 ->
        let site = if Prng.bool prng then Faults.Lock_acquire else Faults.Wal_flush in
        { Faults.sel = Faults.Nth (site, 1 + Prng.int prng 40); act = Faults.Fail }
    | 3 ->
        {
          Faults.sel = Faults.Chance { site = None; rate = 0.002; salt = Prng.int prng 10000 };
          act = Faults.Crash;
        }
    | _ ->
        {
          Faults.sel =
            Faults.Every { site = Faults.Lock_acquire; period = 13 + Prng.int prng 40; phase = 1 + Prng.int prng 5 };
          act = Faults.Fail;
        }
  in
  List.init (1 + Prng.int prng 3) (fun _ -> rule ())

let run () =
  Bench_common.section "R1" "recovery soak: crash-point sweep + random fault plans";

  (* Part 1: exhaustive sweep. *)
  let sweep, sweep_ns = Bench_common.wall (fun () -> Crashlab.sweep ~config ()) in
  let table = Table.create ~columns:[ ("sweep", Table.Left); ("value", Table.Right) ] in
  let { Ode_storage.Sweep.baseline; plans; violations } = sweep in
  Table.add_row table [ "addressable I/O points"; Table.cell_i (Faults.point baseline) ];
  Table.add_row table [ "crash/torn plans checked"; Table.cell_i plans ];
  Table.add_row table [ "invariant violations"; Table.cell_i (List.length violations) ];
  Table.add_row table [ "wall time (s)"; Printf.sprintf "%.2f" (sweep_ns /. 1e9) ];
  Table.print table;
  List.iteri
    (fun i (plan, violation) ->
      if i < 5 then Printf.printf "  VIOLATION [--fault-plan %S] %s\n" plan violation)
    violations;

  (* Part 2: randomized fault-plan soak. *)
  let seeds = 60 in
  let table =
    Table.create
      ~columns:
        [
          ("random soak", Table.Left);
          ("runs", Table.Right);
          ("crashed", Table.Right);
          ("faults fired", Table.Right);
          ("violations", Table.Right);
        ]
  in
  let base = Crashlab.run ~config ~plan:[] () in
  let crashed = ref 0 in
  let fired = ref 0 in
  let violations = ref 0 in
  for seed = 1 to seeds do
    let prng = Prng.create ~seed:(Int64.of_int (0xA5EED + seed)) in
    let plan = random_plan prng (Faults.point base.Crashlab.faults) in
    let result = Crashlab.run ~config ~plan () in
    (match result.Crashlab.outcome with
    | Crashlab.Crashed _ -> incr crashed
    | Crashlab.Completed -> ());
    fired := !fired + List.length (Faults.fired result.Crashlab.faults);
    let broken = Crashlab.verify ~ledger:base.Crashlab.snapshots result in
    violations := !violations + List.length broken;
    List.iteri
      (fun i v ->
        if i < 3 then
          Printf.printf "  VIOLATION [--fault-plan %S] %s\n" (Faults.plan_to_string plan) v)
      broken
  done;
  Table.add_row table
    [
      "mixed crash/torn/fail plans";
      Table.cell_i seeds;
      Table.cell_i !crashed;
      Table.cell_i !fired;
      Table.cell_i !violations;
    ];
  Table.print table;
  Bench_common.note
    "every plan is deterministic; replay any line with: odectl faults --fault-plan PLAN\n"
