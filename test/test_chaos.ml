(* Tests for the chaos layer: recurring strikes and partition windows
   in the fault plan, the runtime invariant monitor, partition
   cut-stacking enforcement, the new scenario keys with raw-text parse
   errors, and the chaos soak harness (digests, shrinking, repro
   artifacts). *)

module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Regular = Rumor_gen.Regular
module Fault = Rumor_sim.Fault
module Invariant = Rumor_sim.Invariant
module Engine = Rumor_sim.Engine
module Topology = Rumor_sim.Topology
module Overlay = Rumor_p2p.Overlay
module Partition = Rumor_p2p.Partition
module Scenario = Rumor_cli.Scenario
module Chaos = Rumor_cli.Chaos
module Run = Rumor_core.Run
module Algorithm = Rumor_core.Algorithm
module Params = Rumor_core.Params

(* --- recurring strikes ------------------------------------------- *)

let test_strike_fires () =
  let s = Fault.strike ~at_round:3 ~count:1 () in
  Alcotest.(check bool) "one-shot at 3" true (Fault.strike_fires s ~round:3);
  Alcotest.(check bool) "one-shot not 6" false (Fault.strike_fires s ~round:6);
  let r = Fault.strike ~every:2 ~at_round:3 ~count:1 () in
  List.iter
    (fun (round, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "every-2 round %d" round)
        want
        (Fault.strike_fires r ~round))
    [ (1, false); (2, false); (3, true); (4, false); (5, true); (7, true) ]

let test_strike_every_validation () =
  Alcotest.check_raises "every < 0"
    (Invalid_argument "Fault.strike: every must be >= 0") (fun () ->
      ignore (Fault.strike ~every:(-1) ~at_round:1 ~count:1 ()))

let test_partition_validation () =
  Alcotest.check_raises "split_at < 1"
    (Invalid_argument "Fault.partition: split_at must be >= 1") (fun () ->
      ignore (Fault.partition ~split_at:0 ~heal_at:2 ()));
  Alcotest.check_raises "heal_at <= split_at"
    (Invalid_argument "Fault.partition: heal_at must be > split_at") (fun () ->
      ignore (Fault.partition ~split_at:3 ~heal_at:3 ()))

(* A fault-plan partition window blocks every cross-side delivery while
   open: run push on K2 (one edge) with the window covering the whole
   horizon and force the two nodes onto different sides. Fraction 1
   puts every node on the minority side (same side!), fraction 0 ditto,
   so instead check the complement: fraction 0 never blocks. *)
let test_partition_window_same_side () =
  let g = Rumor_gen.Classic.complete 2 in
  let run fraction =
    let fault =
      Fault.plan
        ~partition:(Fault.partition ~fraction ~split_at:1 ~heal_at:100 ())
        ()
    in
    let rng = Rng.create 42 in
    Engine.run ~fault ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Rumor_core.Baselines.push_pull ~horizon:20 ())
      ~sources:[ 0 ] ()
  in
  (* fraction 0: both nodes on the majority side — nothing is blocked. *)
  Alcotest.(check int) "fraction 0 informs both" 2 (run 0.).Engine.informed

(* --- invariant monitor ------------------------------------------- *)

let test_invariant_basics () =
  let m = Invariant.create ~limit:2 () in
  Alcotest.(check bool) "fresh monitor ok" true (Invariant.ok m);
  Invariant.tick m;
  Invariant.tick m;
  Alcotest.(check int) "two rounds checked" 2 (Invariant.rounds_checked m);
  Invariant.record m ~check:"census" ~round:1 ~detail:"a";
  Invariant.record m ~check:"census" ~round:2 ~detail:"b";
  Invariant.record m ~check:"census" ~round:3 ~detail:"c";
  Alcotest.(check bool) "not ok" false (Invariant.ok m);
  Alcotest.(check int) "all counted" 3 (Invariant.count m);
  Alcotest.(check int)
    "stored capped at limit" 2
    (List.length (Invariant.violations m));
  (* Oldest first, newest dropped beyond the cap. *)
  (match Invariant.violations m with
  | v :: _ -> Alcotest.(check string) "oldest kept first" "a" v.Invariant.detail
  | [] -> Alcotest.fail "no violations stored");
  Alcotest.check_raises "limit < 1"
    (Invalid_argument "Invariant.create: limit must be >= 1") (fun () ->
      ignore (Invariant.create ~limit:0 ()))

(* A clean run under the monitor reports zero violations — across the
   incremental-census path, the churn (full recount) path and repair. *)
let test_monitor_clean_run () =
  let rng = Rng.create 7 in
  let g = Regular.sample_connected ~rng ~n:256 ~d:4 Regular.Pairing in
  let m = Invariant.create () in
  let r =
    Engine.run ~monitor:m ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Algorithm.make (Params.make ~n_estimate:256 ~d:4 ()))
      ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "run completed" true (Engine.success r);
  Alcotest.(check bool) "no violations" true (Invariant.ok m);
  Alcotest.(check bool) "rounds checked" true (Invariant.rounds_checked m > 0)

(* The monitor draws no randomness: a run with the monitor installed is
   bit-identical to the same run without it. *)
let test_monitor_transparent () =
  let go monitor =
    let rng = Rng.create 11 in
    let g = Regular.sample_connected ~rng ~n:128 ~d:4 Regular.Pairing in
    let r =
      Engine.run ?monitor ~rng
        ~topology:(Topology.of_graph g)
        ~protocol:(Rumor_core.Baselines.push_pull ~horizon:30 ())
        ~sources:[ 0 ] ()
    in
    (r.Engine.rounds, Engine.transmissions r, r.Engine.informed)
  in
  Alcotest.(check (triple int int int))
    "monitor is observationally transparent" (go None)
    (go (Some (Invariant.create ())))

(* --- partition cut stacking -------------------------------------- *)

let overlay_of ~seed ~n ~d =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  (Overlay.of_graph ~capacity:n g, rng)

let test_partition_stacking_raises () =
  let o, rng = overlay_of ~seed:3 ~n:64 ~d:4 in
  let cut = Partition.split_random o ~rng ~fraction:0.5 in
  Alcotest.(check bool) "nonempty cut" true (Partition.cut_size cut > 0);
  Alcotest.check_raises "second split blocked"
    (Invalid_argument
       "Partition.split_by: overlay already has an outstanding unhealed cut")
    (fun () -> ignore (Partition.split_random o ~rng ~fraction:0.5));
  Partition.heal o cut;
  Alcotest.(check int) "cut_size 0 after heal" 0 (Partition.cut_size cut);
  (* Healing releases the overlay: a new split is allowed again. *)
  let cut2 = Partition.split_random o ~rng ~fraction:0.5 in
  Partition.heal o cut2

let test_partition_empty_cut_never_blocks () =
  let o, _rng = overlay_of ~seed:4 ~n:32 ~d:4 in
  (* side = const false: nobody on the minority side, no crossing edge. *)
  let c1 = Partition.split_by o ~side:(fun _ -> false) in
  Alcotest.(check int) "empty cut" 0 (Partition.cut_size c1);
  let c2 = Partition.split_by o ~side:(fun _ -> false) in
  Alcotest.(check int) "still empty" 0 (Partition.cut_size c2);
  ignore (c1, c2)

let test_heal_skips_dead_endpoints () =
  let o, rng = overlay_of ~seed:5 ~n:64 ~d:4 in
  let victim = 0 in
  let before = Overlay.degree o victim in
  Alcotest.(check int) "4-regular before" 4 before;
  let cut = Partition.split_random o ~rng ~fraction:0.5 in
  Overlay.deactivate o victim;
  Partition.heal o cut;
  Alcotest.(check bool) "victim stays dead" false (Overlay.is_alive o victim);
  (* No live node regained an edge towards the dead endpoint. *)
  for v = 1 to 63 do
    if Overlay.is_alive o v then
      List.iter
        (fun w ->
          if w = victim then Alcotest.fail "edge to dead endpoint re-added")
        (Overlay.neighbors o v)
  done

let prop_cut_heal_degree_sequence =
  QCheck.Test.make ~count:100
    ~name:"cut-then-heal restores the exact degree sequence"
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, pct) ->
      let o, rng = overlay_of ~seed:(succ seed) ~n:64 ~d:4 in
      let degrees () =
        List.init (Overlay.capacity o) (fun v -> Overlay.degree o v)
      in
      let before = degrees () in
      let fraction = float_of_int pct /. 100. in
      let cut = Partition.split_random o ~rng ~fraction in
      Partition.heal o cut;
      degrees () = before)

(* --- scenario keys and error text -------------------------------- *)

let scenario_exn text =
  match Scenario.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let test_scenario_new_keys () =
  let s =
    scenario_exn
      "strike_every = 2\n\
       crash_adversary = frontier\n\
       crash_count = 8\n\
       crash_round = 3\n\
       partition_round = 4\n\
       heal_round = 9\n\
       partition_fraction = 0.25\n\
       join_prob = 0.1\n\
       leave_prob = 0.2\n"
  in
  Alcotest.(check int) "strike_every" 2 s.Scenario.strike_every;
  Alcotest.(check int) "partition_round" 4 s.Scenario.partition_round;
  Alcotest.(check int) "heal_round" 9 s.Scenario.heal_round;
  Alcotest.(check (float 0.)) "fraction" 0.25 s.Scenario.partition_fraction;
  Alcotest.(check (float 0.)) "join" 0.1 s.Scenario.join_prob;
  Alcotest.(check (float 0.)) "leave" 0.2 s.Scenario.leave_prob;
  let fault = Scenario.fault_plan s in
  Alcotest.(check bool) "plan has node faults" true
    (Fault.has_node_faults fault)

let check_error text expected_substrings =
  match Scenario.parse text with
  | Ok _ -> Alcotest.failf "parse accepted %S" text
  | Error e ->
      List.iter
        (fun sub ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          if not (contains e sub) then
            Alcotest.failf "error %S misses %S" e sub)
        expected_substrings

let test_scenario_error_carries_raw_text () =
  (* The message must name the line number and quote the raw line. *)
  check_error "n = 1024\nstrike_every = banana\n"
    [ "line 2"; "strike_every = banana" ];
  check_error "partition_fraction = 1.5\n"
    [ "line 1"; "partition_fraction = 1.5" ];
  check_error "partition_round = 5\nheal_round = 4\n"
    [ "heal_round 4"; "partition_round 5" ]

(* --- partition window delays but does not prevent completion ------ *)

let pinned_scenario extra =
  scenario_exn
    ("seed = 5\nn = 2048\nd = 8\nprotocol = bef\nalpha = 2.0\nreps = 1\n\
      domains = 1\n" ^ extra)

let test_partition_window_pinned () =
  let base = Chaos.run_one (pinned_scenario "") in
  let part =
    Chaos.run_one
      (pinned_scenario
         "partition_round = 3\nheal_round = 8\npartition_fraction = 0.5\n")
  in
  Alcotest.(check bool) "baseline completes" true base.Chaos.completed;
  Alcotest.(check bool) "partition run completes" true part.Chaos.completed;
  Alcotest.(check string)
    "baseline digest pinned" "a860aab76673c402" base.Chaos.digest;
  Alcotest.(check string)
    "partition digest pinned" "770f6b59f7fd4d75" part.Chaos.digest;
  Alcotest.(check bool) "both clean" true
    ((not (Chaos.failed base)) && not (Chaos.failed part));
  (* Delay, measured on the underlying trajectory: the partition run
     needs strictly more rounds to reach everyone. *)
  let completion s =
    let rng = Rng.create s.Scenario.seed in
    let g =
      Scenario.make_graph ~rng ~topology:s.Scenario.topology ~n:s.Scenario.n
        ~d:s.Scenario.d
    in
    let protocol =
      Scenario.make_protocol ~protocol:s.Scenario.protocol ~n:(Graph.n g)
        ~d:s.Scenario.d ~alpha:s.Scenario.alpha ~fanout:s.Scenario.fanout ()
    in
    let r =
      Engine.run ~fault:(Scenario.fault_plan s) ~rng
        ~topology:(Topology.of_graph g) ~protocol
        ~sources:[ Run.random_source rng g ]
        ()
    in
    match r.Engine.completion_round with
    | Some c -> c
    | None -> Alcotest.fail "no completion round"
  in
  (* A window opening at round 1 (only the source knows) keeps the far
     side dark until the heal, so completion cannot beat heal_round. *)
  let c0 = completion (pinned_scenario "") in
  let c1 =
    completion
      (pinned_scenario
         "partition_round = 1\nheal_round = 18\npartition_fraction = 0.5\n")
  in
  Alcotest.(check bool)
    (Printf.sprintf "window delays completion (%d > %d)" c1 c0)
    true (c1 > c0);
  Alcotest.(check bool)
    (Printf.sprintf "completion after the heal (%d >= 18)" c1)
    true (c1 >= 18)

(* --- chaos harness ------------------------------------------------ *)

let test_run_one_deterministic () =
  let s = Chaos.sample (Rng.create 99) in
  let a = Chaos.run_one s in
  let b = Chaos.run_one s in
  Alcotest.(check string) "same digest" a.Chaos.digest b.Chaos.digest;
  let c = Chaos.run_one ~check:false s in
  Alcotest.(check string)
    "digest independent of the monitor" a.Chaos.digest c.Chaos.digest;
  Alcotest.(check int) "monitor off checks nothing" 0 c.Chaos.checked

(* Chaos and the scenario runner share one stopping rule: for every
   protocol, a fault-free implicit run reports the same rounds and
   coverage from both entry points. push-pull-age terminates itself,
   so an entry point that stops it at completion reports fewer
   rounds. *)
let test_run_one_matches_run_rep () =
  List.iter
    (fun protocol ->
      let s =
        {
          Scenario.default with
          Scenario.seed = 5;
          n = 512;
          d = 8;
          topology = "implicit-regular";
          protocol;
          reps = 1;
          domains = 1;
        }
      in
      let o = Chaos.run_one s in
      let r = Scenario.run_rep s (Rng.create s.Scenario.seed) in
      Alcotest.(check (option string)) (protocol ^ " no error") None
        o.Chaos.error;
      Alcotest.(check int) (protocol ^ " rounds") r.Engine.rounds
        o.Chaos.rounds;
      Alcotest.(check (float 0.)) (protocol ^ " coverage")
        (Engine.coverage r) o.Chaos.coverage)
    Scenario.protocols

(* Repair epochs only start once the main schedule has left some live
   node uninformed, so on a fault-free run every protocol must report
   the same run with repair on as off — an open-ended baseline stops at
   full coverage either way. *)
let test_repair_keeps_stopping_rule () =
  List.iter
    (fun protocol ->
      let s =
        { Scenario.default with Scenario.seed = 3; n = 512; d = 8; protocol }
      in
      let run max_epochs =
        Scenario.run_rep { s with Scenario.max_epochs } (Rng.create 3)
      in
      let off = run 0 and on = run 4 in
      let check_int what f =
        Alcotest.(check int) (protocol ^ " " ^ what) (f off) (f on)
      in
      check_int "rounds" (fun r -> r.Engine.rounds);
      Alcotest.(check (option int)) (protocol ^ " completion round")
        off.Engine.completion_round on.Engine.completion_round;
      check_int "push tx" (fun r -> r.Engine.push_tx);
      check_int "pull tx" (fun r -> r.Engine.pull_tx);
      Alcotest.(check (float 0.)) (protocol ^ " coverage")
        (Engine.coverage off) (Engine.coverage on))
    Scenario.protocols;
  (* The rule is the protocol's: no scenario key overrides it. *)
  check_error "stop = true\n" [ "line 1"; "unknown key: stop" ]

(* One scenario per topology/repair/churn/source combination that used
   to take its own code path in [Scenario.run_rep]. The digests were
   recorded before those paths were merged into one sequence, so any
   draw-order drift in the shared path shows up here. *)
let run_rep_goldens =
  [
    ( "implicit",
      "topology = implicit-regular\nprotocol = bef\nloss = 0.05\nseed = 11",
      "e19d23f7dea5628f" );
    ( "implicit + repair",
      "topology = implicit-regular\nprotocol = bef\ncrash_rate = 0.01\n\
       max_epochs = 4\nseed = 12",
      "7e0895e73d1dfcfa" );
    ( "materialised",
      "topology = regular\nprotocol = push-pull\nloss = 0.1\nseed = 13",
      "f3f6d6df1f84466a" );
    ( "materialised + repair",
      "topology = regular\nprotocol = bef\ncrash_rate = 0.01\n\
       recover_rate = 0.2\nmax_epochs = 4\nseed = 14",
      "e721a117bfa0c6d5" );
    ( "join/leave + repair",
      "topology = regular\nprotocol = bef\njoin_prob = 0.1\n\
       leave_prob = 0.1\nmax_epochs = 4\nseed = 15",
      "1c0690e29f5189ae" );
    ( "churn_rate",
      "topology = regular\nprotocol = push\nchurn_rate = 0.01\nseed = 16",
      "7fa637ffcba27b9e" );
    ( "source = first",
      "topology = hypercube\nprotocol = bef\nsource = first\nseed = 17",
      "2204498c018d9e28" );
  ]

let test_run_rep_goldens () =
  List.iter
    (fun (name, text, want) ->
      match Scenario.parse ("n = 512\nd = 8\n" ^ text) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok s ->
          Alcotest.(check string) name want
            (Chaos.digest_of_result
               (Scenario.run_rep s (Rng.create s.Scenario.seed))))
    run_rep_goldens

let test_sample_deterministic () =
  let take seed =
    let rng = Rng.create seed in
    List.init 5 (fun _ -> Chaos.sample rng)
  in
  Alcotest.(check bool) "same seed, same configs" true (take 17 = take 17);
  Alcotest.(check bool) "different seed, different configs" true
    (take 17 <> take 18)

let test_scenario_text_roundtrip () =
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let s = Chaos.sample rng in
    match Scenario.parse (Scenario.to_text s) with
    | Ok s' ->
        if s' <> s then
          Alcotest.failf "to_text round-trip changed:\n%s" (Scenario.to_text s)
    | Error e -> Alcotest.failf "to_text does not re-parse: %s" e
  done

(* Every key off its default: churn_rate excludes join_prob/leave_prob,
   so two scenarios share the work, and together they must move every
   key the renderer knows. *)
let test_to_text_every_key () =
  let a =
    {
      Scenario.seed = 5;
      n = 600;
      d = 6;
      topology = "gnp";
      protocol = "push";
      alpha = 1.5;
      fanout = 3;
      loss = 0.05;
      call_failure = 0.02;
      burst_loss = 0.1;
      burst_len = 3.5;
      crash_rate = 0.01;
      recover_rate = 0.2;
      crash_adversary = "degree";
      crash_count = 4;
      crash_round = 3;
      strike_every = 2;
      partition_round = 3;
      heal_round = 7;
      partition_fraction = 0.3;
      join_prob = 0.1;
      leave_prob = 0.15;
      churn_rate = -1.;
      n_error = 2.5;
      repair_timeout = 3;
      repair_backoff = 16;
      max_epochs = 2;
      source = "first";
      reps = 2;
      domains = 1;
      packed = false;
    }
  in
  let b = { a with join_prob = 0.; leave_prob = 0.; churn_rate = 0.01 } in
  List.iter
    (fun s ->
      match Scenario.parse (Scenario.to_text s) with
      | Ok s' ->
          if s' <> s then
            Alcotest.failf "to_text round-trip changed:\n%s"
              (Scenario.to_text s)
      | Error e -> Alcotest.failf "to_text does not re-parse: %s" e)
    [ a; b ];
  let defaults = Scenario.bindings Scenario.default in
  let moved s =
    List.filter
      (fun (k, v) -> List.assoc_opt k defaults <> Some v)
      (Scenario.bindings s)
    |> List.map fst
  in
  let all_keys =
    List.sort_uniq compare
      (List.map fst (Scenario.bindings a @ Scenario.bindings b))
  in
  Alcotest.(check (list string))
    "every key set off its default" all_keys
    (List.sort_uniq compare (moved a @ moved b));
  Alcotest.(check bool) "churn_rate rendered when set" true
    (List.mem "churn_rate" all_keys)

(* Pinning a churn_rate scenario and replaying the artifact must give
   the pinned digest: the artifact has to carry churn_rate. *)
let test_churn_pin_replays () =
  let s =
    scenario_exn
      "n = 512\nd = 8\ntopology = regular\nprotocol = push\n\
       churn_rate = 0.01\nseed = 16\n"
  in
  let pinned = (Chaos.run_one s).Chaos.digest in
  Alcotest.(check string) "pinned digest" "568bed2e101ed468" pinned;
  match Chaos.parse_artifact (Chaos.artifact ~digest:pinned s) with
  | Error e -> Alcotest.failf "artifact does not parse: %s" e
  | Ok (s', expect) ->
      Alcotest.(check bool) "scenario preserved" true (s' = s);
      Alcotest.(check string) "replay digest" expect
        (Chaos.run_one s').Chaos.digest

(* n_error * n must fit in an int: past it the estimate used to wrap
   and be clamped to 4 without a word. *)
let test_n_error_overflow () =
  check_error "n = 1024\nn_error = 1e30\n" [ "n_error"; "overflow" ];
  check_error "n_error = inf\n" [ "finite" ];
  ignore (scenario_exn "n = 1024\nn_error = 1000\n")

(* --- the read-only round observer -------------------------------- *)

(* bef runs its schedule out while peers churn, so late joiners are
   left for the repair epochs. *)
let churn_repair =
  "n = 512\nd = 8\ntopology = regular\nprotocol = bef\nchurn_rate = 0.02\n\
   max_epochs = 4\nseed = 15\n"

let test_observe_counts_rounds () =
  let s = scenario_exn churn_repair in
  let seen = ref [] in
  let r =
    Scenario.run_rep ~observe:(fun k -> seen := k :: !seen) s
      (Rng.create s.Scenario.seed)
  in
  Alcotest.(check bool) "repair epochs ran" true (Engine.epochs_used r > 0);
  Alcotest.(check (list int))
    "fires once per round, numbered across the epochs"
    (List.init r.Engine.rounds (fun i -> i + 1))
    (List.rev !seen)

let test_observe_transparent () =
  List.iter
    (fun (name, text, want) ->
      let s = scenario_exn ("n = 512\nd = 8\n" ^ text) in
      Alcotest.(check string) name want
        (Chaos.digest_of_result
           (Scenario.run_rep ~observe:ignore s (Rng.create s.Scenario.seed))))
    run_rep_goldens

let test_observe_aborts_in_epoch () =
  let s = scenario_exn churn_repair in
  let r = Scenario.run_rep s (Rng.create s.Scenario.seed) in
  let main =
    r.Engine.rounds
    - List.fold_left (fun a e -> a + e.Engine.epoch_rounds) 0 r.Engine.repair
  in
  Alcotest.check_raises "raise in the first epoch round aborts" Exit
    (fun () ->
      ignore
        (Scenario.run_rep
           ~observe:(fun k -> if k = main + 1 then raise Exit)
           s (Rng.create s.Scenario.seed)))

let test_artifact_roundtrip () =
  let s = Chaos.sample (Rng.create 31) in
  let o = Chaos.run_one s in
  let text =
    Chaos.artifact ~notes:[ "note one"; "note two" ] ~digest:o.Chaos.digest s
  in
  match Chaos.parse_artifact text with
  | Error e -> Alcotest.failf "artifact does not parse: %s" e
  | Ok (s', d) ->
      Alcotest.(check string) "digest preserved" o.Chaos.digest d;
      Alcotest.(check bool) "scenario preserved" true (s' = s)

let test_artifact_errors () =
  (match Chaos.parse_artifact "n = 64\n" with
  | Error e ->
      Alcotest.(check bool)
        "missing digest reported" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted artifact without digest");
  match Chaos.parse_artifact "expect_digest = nope\nn = 64\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed digest"

let test_replay_matches_artifact () =
  let s = Chaos.sample (Rng.create 47) in
  let o = Chaos.run_one s in
  let text = Chaos.artifact ~digest:o.Chaos.digest s in
  match Chaos.parse_artifact text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok (s', expect) ->
      let o' = Chaos.run_one s' in
      Alcotest.(check string) "replay digest matches" expect o'.Chaos.digest

let test_shrink_greedy () =
  (* Synthetic failure predicate: no simulation involved. *)
  let s = { (Chaos.sample (Rng.create 3)) with Scenario.n = 512 } in
  let fails (c : Scenario.t) = c.Scenario.n >= 128 in
  let small = Chaos.shrink ~fails s in
  Alcotest.(check int) "halved to the smallest failing n" 128
    small.Scenario.n;
  (* Every fault axis the predicate ignores was zeroed away. *)
  Alcotest.(check (float 0.)) "loss zeroed" 0. small.Scenario.loss;
  Alcotest.(check int) "partition zeroed" 0 small.Scenario.partition_round;
  Alcotest.(check (float 0.)) "churn zeroed" 0. small.Scenario.join_prob;
  (* A predicate nothing satisfies leaves the scenario unchanged. *)
  let same = Chaos.shrink ~fails:(fun _ -> false) s in
  Alcotest.(check bool) "no shrink without failure" true (same = s)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_cut_heal_degree_sequence ]

let () =
  Alcotest.run "chaos"
    [
      ( "fault-extensions",
        [
          Alcotest.test_case "strike_fires schedule" `Quick test_strike_fires;
          Alcotest.test_case "strike every validation" `Quick
            test_strike_every_validation;
          Alcotest.test_case "partition validation" `Quick
            test_partition_validation;
          Alcotest.test_case "partition window fraction 0" `Quick
            test_partition_window_same_side;
        ] );
      ( "invariant-monitor",
        [
          Alcotest.test_case "record/limit/ok" `Quick test_invariant_basics;
          Alcotest.test_case "clean run has no violations" `Quick
            test_monitor_clean_run;
          Alcotest.test_case "monitor is transparent" `Quick
            test_monitor_transparent;
        ] );
      ( "partition-overlay",
        [
          Alcotest.test_case "stacking raises" `Quick
            test_partition_stacking_raises;
          Alcotest.test_case "empty cut never blocks" `Quick
            test_partition_empty_cut_never_blocks;
          Alcotest.test_case "heal skips dead endpoints" `Quick
            test_heal_skips_dead_endpoints;
        ]
        @ qcheck_cases );
      ( "scenario-keys",
        [
          Alcotest.test_case "new keys parse" `Quick test_scenario_new_keys;
          Alcotest.test_case "errors carry line and raw text" `Quick
            test_scenario_error_carries_raw_text;
          Alcotest.test_case "n_error overflow rejected" `Quick
            test_n_error_overflow;
        ] );
      ( "observe",
        [
          Alcotest.test_case "fires once per round" `Quick
            test_observe_counts_rounds;
          Alcotest.test_case "no-op observer keeps the goldens" `Quick
            test_observe_transparent;
          Alcotest.test_case "raise in a repair epoch aborts" `Quick
            test_observe_aborts_in_epoch;
        ] );
      ( "partition-window",
        [
          Alcotest.test_case "delays but completes (pinned)" `Quick
            test_partition_window_pinned;
        ] );
      ( "chaos-harness",
        [
          Alcotest.test_case "run_one deterministic" `Quick
            test_run_one_deterministic;
          Alcotest.test_case "run_one stops like run_rep" `Quick
            test_run_one_matches_run_rep;
          Alcotest.test_case "repair keeps the stopping rule" `Quick
            test_repair_keeps_stopping_rule;
          Alcotest.test_case "run_rep goldens per former branch" `Quick
            test_run_rep_goldens;
          Alcotest.test_case "sample deterministic" `Quick
            test_sample_deterministic;
          Alcotest.test_case "scenario_text round-trips" `Quick
            test_scenario_text_roundtrip;
          Alcotest.test_case "to_text covers every key" `Quick
            test_to_text_every_key;
          Alcotest.test_case "churn pin replays" `Quick test_churn_pin_replays;
          Alcotest.test_case "artifact round-trips" `Quick
            test_artifact_roundtrip;
          Alcotest.test_case "artifact error paths" `Quick test_artifact_errors;
          Alcotest.test_case "replay matches artifact" `Quick
            test_replay_matches_artifact;
          Alcotest.test_case "greedy shrink" `Quick test_shrink_greedy;
        ] );
    ]
