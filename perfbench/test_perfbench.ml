(* Entry-point agreement for the benchmark, at small n: the
   single-broadcast path reproduces [Scenario.run_rep] bit-for-bit,
   its traced pass reproduces the untraced one, and the traced
   [run_tasks] path reproduces [Matrix.run]. If these drift, the
   benchmark no longer measures what [rumor run] / [rumor matrix] do.
   Also: the host reading hands every call its own scale, in order. *)

open Perfbench_lib
module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Bitset = Rumor_sim.Bitset
module Scenario = Rumor_cli.Scenario
module Matrix = Rumor_cli.Matrix

let scenario name ~n =
  match Scenario.parse_file ("workloads/" ^ name ^ ".txt") with
  | Ok s -> { s with Scenario.n; seed = 5 }
  | Error e -> Alcotest.failf "%s: %s" name e

let scalars (r : Engine.result) =
  ( (r.rounds, r.completion_round, r.informed, r.population),
    (r.push_tx, r.pull_tx, r.channels, r.down),
    Bitset.to_bool_array r.knows )

let same_result what a b =
  if scalars a <> scalars b then Alcotest.failf "%s: results differ" what

let singles = [ "bef-implicit"; "pushpull-faults-csr" ]

let test_run_rep name () =
  let s = scenario name ~n:2048 in
  let base = Rng.create s.seed in
  for i = 0 to 2 do
    let rng = Rng.fork base i in
    let expected = Scenario.run_rep s (Rng.copy rng) in
    let got = Single.broadcast (Single.setup s (Rng.copy rng)) in
    same_result (Printf.sprintf "%s rep %d" name i) expected got;
    Alcotest.(check (option string)) "output check" None
      (Single.check (Single.setup s (Rng.copy rng)) got)
  done

let test_traced name () =
  let o, spans = Single.trace ~seconds:0. (scenario name ~n:2048) in
  Alcotest.(check (list string)) "no failures" [] o.Report.failures;
  let value k = (List.find (fun m -> m.Report.name = k) o.metrics).Report.value in
  let rounds = int_of_float (value "kernel.rounds") in
  Alcotest.(check bool) "every neighbour call opened or met a dead node" true
    (value "topology.neighbor_calls" >= value "kernel.channels");
  let opens =
    List.filter (String.starts_with ~prefix:{|{"span":"kernel.open"|}) spans
  in
  Alcotest.(check int) "one open span per round" rounds (List.length opens)

(* The fidelity check is not vacuous: runs on other draws differ. *)
let test_fidelity_detects () =
  let s = scenario "pushpull-faults-csr" ~n:2048 in
  let run i = Single.broadcast (Single.setup s (Rng.fork (Rng.create s.seed) i)) in
  Alcotest.(check bool) "mismatch reported" true
    (Option.is_some (Single.fidelity (run 0) (run 1)))

let small_grid ~seed =
  let spec =
    match Grid.load ~file:"workloads/heal-grid.txt" ~seed with
    | Ok (spec, _) -> spec
    | Error e -> Alcotest.fail e
  in
  match Matrix.set_base spec ~key:"n" ~value:"512" with
  | Ok spec -> spec
  | Error e -> Alcotest.fail e

let cells spec =
  match Matrix.cells spec with Ok c -> c | Error e -> Alcotest.fail e

let matrix_run spec =
  match Matrix.run ~domains:2 spec with Ok r -> r | Error e -> Alcotest.fail e

let test_grid_agreement () =
  let spec = small_grid ~seed:3 in
  let run = matrix_run spec in
  List.iter
    (fun domains ->
      let _, _, spans = Grid.traced_tasks ~domains (cells spec) in
      Alcotest.(check (list string))
        (Printf.sprintf "%d-domain traced path agrees" domains)
        [] (Grid.agreement run spans ~label:"traced"))
    [ 1; 2 ];
  Alcotest.(check (list string)) "grid output checks" []
    (Grid.check_grid (Grid.results_of run))

let test_grid_agreement_detects () =
  let run = matrix_run (small_grid ~seed:3) in
  let _, _, spans = Grid.traced_tasks ~domains:2 (cells (small_grid ~seed:4)) in
  Alcotest.(check bool) "mismatch reported" true
    (Grid.agreement run spans ~label:"other seed" <> [])

(* Every call gets a positive scale, calls run in order, and call 0 is
   made even when no time is left. *)
let test_calib_repeat () =
  List.iter
    (fun kind ->
      let rss, reps = Calib.repeat { Calib.kind; sensitivity = 1. } ~seconds:0. (fun i -> i) in
      Alcotest.(check bool) "peak RSS read" true (rss >= 0);
      Alcotest.(check (list int)) "calls in order" (List.init (List.length reps) Fun.id)
        (List.map snd reps);
      Alcotest.(check bool) "at least two calls" true (List.length reps >= 2);
      List.iter
        (fun (scale, _) -> Alcotest.(check bool) "scale positive" true (scale > 0.))
        reps)
    [ Calib.Cache; Calib.Memory ]

let () =
  Alcotest.run "perfbench"
    [
      ( "single",
        List.concat_map
          (fun name ->
            [
              Alcotest.test_case (name ^ " reproduces run_rep") `Quick (test_run_rep name);
              Alcotest.test_case (name ^ " traced pass is faithful") `Quick (test_traced name);
            ])
          singles
        @ [ Alcotest.test_case "fidelity check detects divergence" `Quick test_fidelity_detects ] );
      ( "grid",
        [
          Alcotest.test_case "traced run_tasks reproduces Matrix.run" `Quick test_grid_agreement;
          Alcotest.test_case "agreement check detects divergence" `Quick
            test_grid_agreement_detects;
        ] );
      ("calib", [ Alcotest.test_case "every call gets a scale" `Quick test_calib_repeat ]);
    ]
