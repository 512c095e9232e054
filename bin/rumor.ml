(* Command-line interface to the rumor library.

   Subcommands:
     generate    sample a graph and print its structural statistics
     broadcast   run one broadcast and report time/transmissions
     multi       broadcast several rumors over shared channels
     async       one broadcast under Poisson clocks (no lockstep rounds)
     estimate    min-of-exponentials gossip estimate of the network size
     run         execute a scenario file (repeated broadcasts, summarised)
     chaos       seeded soak over random fault configs, invariants on
     replay      re-run a chaos repro artifact and diff its digest
     bench-check validate a BENCH_*.json telemetry file, diff --against
     serve       gossip-session service over supervised worker domains
     load        fault-injecting load generator for a serve endpoint
     matrix      declarative scenario sweep grids with regression gates

   Every sweep is a file: size grids, the fault x estimate frontier and
   self-healing or churn points are scenario/matrix files under
   scenarios/, executed by run and matrix. broadcast, run, matrix and
   chaos run a scenario through one function, Scenario.run_rep. Whether a
   run stops at full coverage is the protocol's own field,
   Protocol.stop_at_completion, read by the kernel for every subcommand:
   the open-ended baselines stop there, bef and the age-out baselines run
   their own schedules out.

   broadcast, multi and async take --json to emit one structured JSON
   document on stdout instead of the human report, and --trace-out FILE
   for an NDJSON per-round dump; matrix --json FILE writes a
   rumor-bench/1 document. *)

module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Traversal = Rumor_graph.Traversal
module Metrics = Rumor_graph.Metrics
module Spectral = Rumor_graph.Spectral
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Fault = Rumor_sim.Fault
module Trace = Rumor_sim.Trace
module Run = Rumor_core.Run
module Experiment = Rumor_stats.Experiment
module Table = Rumor_stats.Table
module Json = Rumor_obs.Json
module Obs_metrics = Rumor_obs.Metrics
module Encode = Rumor_obs.Encode
module Latency = Rumor_obs.Latency
module Session = Rumor_serve.Session
module Service = Rumor_serve.Service
module Server = Rumor_serve.Server
module Load = Rumor_serve.Load
module Scenario = Rumor_cli.Scenario
module Matrix = Rumor_cli.Matrix
module Benchdoc = Rumor_obs.Benchdoc

open Cmdliner

(* --- shared arguments --- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg =
  Arg.(value & opt int 16384 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let d_arg =
  Arg.(value & opt int 8 & info [ "d" ] ~docv:"D" ~doc:"Degree of the regular graph.")

let topology_arg =
  let doc =
    "Topology: regular (random d-regular), hypercube, torus, complete, \
     gnp, product-k5 (random regular times K5). broadcast also accepts \
     the seed-derived implicit views implicit-regular, implicit-hypercube \
     and implicit-chords, which never build the graph and scale to \
     n = 10,000,000+."
  in
  Arg.(value & opt string "regular" & info [ "topology" ] ~docv:"KIND" ~doc)

let protocol_arg =
  let doc =
    "Protocol: bef (the paper's algorithm), bef-seq (memory variant), push, \
     pull, push-pull, quasirandom."
  in
  Arg.(value & opt string "bef" & info [ "protocol" ] ~docv:"PROTO" ~doc)

let alpha_arg =
  Arg.(value & opt float 1.0 & info [ "alpha" ] ~docv:"A" ~doc:"Phase-length constant.")

let fanout_arg =
  Arg.(value & opt int 4 & info [ "fanout" ] ~docv:"K" ~doc:"Distinct neighbours per round.")

let loss_arg =
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc:"Per-transmission loss probability.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-round trace.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit one machine-readable JSON document on stdout instead of the \
           human-readable report.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the per-round trace as newline-delimited JSON (one object \
           per round) to $(docv).")

(* --- generate --- *)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the generated graph to a file.")

let graph_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph" ] ~docv:"FILE"
        ~doc:"Load the graph from a file (written by generate --out) instead \
              of sampling one.")

let generate seed n d topology out =
  let rng = Rng.create seed in
  let g = Rumor_cli.Scenario.make_graph ~rng ~topology ~n ~d in
  (match out with
  | Some path ->
      Rumor_graph.Io.to_file path g;
      Printf.printf "wrote %s\n" path
  | None -> ());
  let stats = Metrics.degree_stats g in
  Printf.printf "topology   %s\n" topology;
  Printf.printf "nodes      %d\n" (Graph.n g);
  Printf.printf "edges      %d\n" (Graph.m g);
  Printf.printf "degrees    min %d / mean %.2f / max %d\n" stats.Metrics.min
    stats.Metrics.mean stats.Metrics.max;
  Printf.printf "simple     %b\n" (Graph.is_simple g);
  Printf.printf "connected  %b\n" (Traversal.is_connected g);
  Printf.printf "diameter   >= %d\n"
    (Traversal.diameter_lower_bound g ~rng ~samples:4);
  let l2 = Spectral.lambda2 g ~rng ~iters:60 in
  Printf.printf "lambda2    %.3f (ramanujan bound %.3f)\n" l2
    (Spectral.ramanujan_bound (int_of_float stats.Metrics.mean));
  0

let generate_cmd =
  let info = Cmd.info "generate" ~doc:"Sample a graph and print statistics." in
  Cmd.v info
    Term.(const generate $ seed_arg $ n_arg $ d_arg $ topology_arg $ out_arg)

(* --- broadcast --- *)

let broadcast seed n d topology protocol alpha fanout loss trace graph_in json
    trace_out =
  let scenario =
    { Scenario.default with seed; n; d; topology; protocol; alpha; fanout; loss }
  in
  let collect_trace = trace || trace_out <> None in
  let res, span =
    match graph_in with
    | None -> (
        match Scenario.validate scenario with
        | Error e ->
            prerr_endline ("rumor: " ^ e);
            exit 2
        | Ok s ->
            Obs_metrics.timed (fun () ->
                Scenario.run_rep ~collect_trace s (Rng.create seed)))
    | Some path ->
        if Scenario.is_implicit topology then begin
          prerr_endline
            "rumor: --graph cannot be combined with an implicit --topology";
          exit 2
        end;
        (* A loaded graph is not a scenario topology: same protocol,
           source draw and engine call as [Scenario.run_rep], on the
           file's graph. *)
        let g = Rumor_graph.Io.of_file path in
        let rng = Rng.create seed in
        let p =
          Scenario.make_protocol ~protocol ~n:(Graph.n g) ~d ~alpha ~fanout ()
        in
        let source = Rng.int rng (Graph.n g) in
        Obs_metrics.timed (fun () ->
            Engine.run ~fault:(Scenario.fault_plan scenario) ~collect_trace ~rng
              ~topology:(Rumor_sim.Topology.of_graph g) ~protocol:p
              ~sources:[ source ] ())
  in
  (* The topology's id space: a hypercube or torus rounds [n]. *)
  let n_real = Rumor_sim.Bitset.length res.Engine.knows in
  let protocol_name = Scenario.protocol_name scenario in
  (match (res.Engine.trace, trace_out) with
  | Some t, Some path ->
      let oc = open_out path in
      output_string oc (Encode.trace_ndjson t);
      close_out oc;
      if not json then Printf.printf "wrote trace %s (%d rounds)\n" path (Trace.length t)
  | _ -> ());
  if json then
    print_endline
      (Json.to_string ~minify:false
         (Json.Obj
            [
              ("command", Json.String "broadcast");
              ("seed", Json.Int seed);
              ("topology", Json.String topology);
              ("n", Json.Int n_real);
              ("d", Json.Int d);
              ("protocol", Json.String protocol_name);
              ("alpha", Json.Float alpha);
              ("fanout", Json.Int fanout);
              ("link_loss", Json.Float loss);
              ("result", Encode.engine_result res);
              ( "tx_per_node",
                Json.Float
                  (float_of_int (Engine.transmissions res)
                  /. float_of_int n_real) );
              ("metrics", Obs_metrics.span_to_json span);
            ]))
  else begin
    Printf.printf "protocol     %s\n" protocol_name;
    Printf.printf "informed     %d / %d (%s)\n" res.Engine.informed
      res.Engine.population
      (if Engine.success res then "complete" else "INCOMPLETE");
    (match res.Engine.completion_round with
    | Some r -> Printf.printf "completion   round %d\n" r
    | None -> Printf.printf "completion   never\n");
    Printf.printf "rounds run   %d\n" res.Engine.rounds;
    Printf.printf "transmissions %d push + %d pull = %d (%.2f per node)\n"
      res.Engine.push_tx res.Engine.pull_tx
      (Engine.transmissions res)
      (float_of_int (Engine.transmissions res) /. float_of_int n_real);
    match res.Engine.trace with
    | Some t when trace ->
        Printf.printf "informed      %s\n"
          (Rumor_stats.Sparkline.with_scale (Trace.informed_series t));
        Format.printf "%a" Trace.pp t
    | Some _ | None -> ()
  end;
  if Engine.success res then 0 else 1

let broadcast_cmd =
  let info = Cmd.info "broadcast" ~doc:"Run one broadcast." in
  Cmd.v info
    Term.(
      const broadcast $ seed_arg $ n_arg $ d_arg $ topology_arg $ protocol_arg
      $ alpha_arg $ fanout_arg $ loss_arg $ trace_arg $ graph_in_arg $ json_arg
      $ trace_out_arg)

(* --- multi --- *)

let messages_arg =
  Arg.(
    value & opt int 2
    & info [ "messages" ] ~docv:"K"
        ~doc:"Number of rumors sharing each round's channel set.")

let spacing_arg =
  Arg.(
    value & opt int 2
    & info [ "spacing" ] ~docv:"S"
        ~doc:
          "Rounds between consecutive rumor creation times (rumor $(i,j) is \
           created at the end of round $(i,j)·$(docv)).")

let multi seed n d topology protocol alpha fanout loss messages spacing json
    trace_out =
  let rng = Rng.create seed in
  let g = Rumor_cli.Scenario.make_graph ~rng ~topology ~n ~d in
  let n_real = Graph.n g in
  let p =
    Rumor_cli.Scenario.make_protocol ~protocol ~n:n_real ~d ~alpha ~fanout ()
  in
  if messages < 1 then (
    Printf.eprintf "multi: --messages must be >= 1\n";
    exit 2);
  let msgs =
    List.init messages (fun j ->
        { Rumor_sim.Multi.source = Run.random_source rng g;
          created = j * spacing })
  in
  let fault = Fault.make ~link_loss:loss () in
  let collect_trace = trace_out <> None in
  let res =
    Rumor_sim.Multi.run ~fault ~collect_trace ~rng
      ~topology:(Rumor_sim.Topology.of_graph g) ~protocol:p ~messages:msgs ()
  in
  (match (res.Rumor_sim.Multi.trace, trace_out) with
  | Some t, Some path ->
      let oc = open_out path in
      output_string oc (Encode.trace_ndjson t);
      close_out oc;
      if not json then
        Printf.printf "wrote trace %s (%d rounds)\n" path (Trace.length t)
  | _ -> ());
  if json then
    print_endline
      (Json.to_string ~minify:false
         (Json.Obj
            [
              ("command", Json.String "multi");
              ("seed", Json.Int seed);
              ("topology", Json.String topology);
              ("n", Json.Int n_real);
              ("d", Json.Int d);
              ("protocol", Json.String p.Rumor_sim.Protocol.name);
              ("spacing", Json.Int spacing);
              ("link_loss", Json.Float loss);
              ("result", Encode.multi_result res);
            ]))
  else begin
    Printf.printf "protocol     %s\n" p.Rumor_sim.Protocol.name;
    Printf.printf "rumors       %d (spacing %d)\n" messages spacing;
    Printf.printf "rounds run   %d\n" res.Rumor_sim.Multi.rounds;
    Printf.printf "channels     %d (shared by all rumors)\n"
      res.Rumor_sim.Multi.channels;
    Array.iteri
      (fun j (m : Rumor_sim.Multi.message_result) ->
        Printf.printf "rumor %-2d     informed %d / %d, tx %d, completion %s\n"
          j m.Rumor_sim.Multi.informed res.Rumor_sim.Multi.population
          m.Rumor_sim.Multi.transmissions
          (match m.Rumor_sim.Multi.completion_round with
          | Some r -> Printf.sprintf "round %d" r
          | None -> "never"))
      res.Rumor_sim.Multi.messages
  end;
  if Rumor_sim.Multi.all_complete res then 0 else 1

let multi_cmd =
  let info =
    Cmd.info "multi"
      ~doc:
        "Broadcast several rumors over shared channels (the paper's \
         frequently-generated-messages model)."
  in
  Cmd.v info
    Term.(
      const multi $ seed_arg $ n_arg $ d_arg $ topology_arg $ protocol_arg
      $ alpha_arg $ fanout_arg $ loss_arg $ messages_arg $ spacing_arg
      $ json_arg $ trace_out_arg)

(* --- async --- *)

let async seed n d topology protocol alpha fanout loss json trace_out =
  let rng = Rng.create seed in
  let g = Rumor_cli.Scenario.make_graph ~rng ~topology ~n ~d in
  let n_real = Graph.n g in
  let p =
    Rumor_cli.Scenario.make_protocol ~protocol ~n:n_real ~d ~alpha ~fanout ()
  in
  let fault = Fault.make ~link_loss:loss () in
  let collect_trace = trace_out <> None in
  let res =
    Rumor_sim.Async.run ~fault ~collect_trace ~rng ~graph:g ~protocol:p
      ~sources:[ Run.random_source rng g ] ()
  in
  (match (res.Rumor_sim.Async.trace, trace_out) with
  | Some t, Some path ->
      let oc = open_out path in
      output_string oc (Encode.trace_ndjson t);
      close_out oc;
      if not json then
        Printf.printf "wrote trace %s (%d time units)\n" path (Trace.length t)
  | _ -> ());
  if json then
    print_endline
      (Json.to_string ~minify:false
         (Json.Obj
            [
              ("command", Json.String "async");
              ("seed", Json.Int seed);
              ("topology", Json.String topology);
              ("n", Json.Int n_real);
              ("d", Json.Int d);
              ("protocol", Json.String p.Rumor_sim.Protocol.name);
              ("link_loss", Json.Float loss);
              ("result", Encode.async_result res);
            ]))
  else begin
    Printf.printf "protocol     %s\n" p.Rumor_sim.Protocol.name;
    Printf.printf "informed     %d / %d (%s)\n" res.Rumor_sim.Async.informed
      n_real
      (if res.Rumor_sim.Async.informed = n_real then "complete"
       else "INCOMPLETE");
    (match res.Rumor_sim.Async.completion_time with
    | Some t -> Printf.printf "completion   time %.3f\n" t
    | None -> Printf.printf "completion   never\n");
    Printf.printf "time         %.3f (%d activations)\n"
      res.Rumor_sim.Async.time res.Rumor_sim.Async.activations;
    Printf.printf "transmissions %d (%.2f per node)\n"
      res.Rumor_sim.Async.transmissions
      (float_of_int res.Rumor_sim.Async.transmissions /. float_of_int n_real)
  end;
  if res.Rumor_sim.Async.informed = n_real then 0 else 1

let async_cmd =
  let info =
    Cmd.info "async"
      ~doc:
        "Run one broadcast under Poisson clocks (asynchronous relaxation of \
         the round model)."
  in
  Cmd.v info
    Term.(
      const async $ seed_arg $ n_arg $ d_arg $ topology_arg $ protocol_arg
      $ alpha_arg $ fanout_arg $ loss_arg $ json_arg $ trace_out_arg)

(* --- estimate --- *)

let k_arg =
  Arg.(
    value & opt int 256
    & info [ "k" ] ~docv:"K" ~doc:"Exponentials per node (accuracy knob).")

let estimate seed n d k =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let overlay = Rumor_p2p.Overlay.of_graph ~capacity:n g in
  let est = Rumor_p2p.Estimator.create ~rng ~overlay ~k in
  let rounds = Rumor_p2p.Estimator.run ~rng est in
  Printf.printf "gossip rounds     %d\n" rounds;
  Printf.printf "node 0 estimate   %.1f (true %d)\n"
    (Rumor_p2p.Estimator.estimate est ~node:0)
    n;
  Printf.printf "worst-node factor %.3f\n" (Rumor_p2p.Estimator.worst_error est);
  0

let estimate_cmd =
  let info =
    Cmd.info "estimate"
      ~doc:
        "Estimate the network size by min-of-exponentials gossip (the input \
         the broadcast algorithm assumes)."
  in
  Cmd.v info Term.(const estimate $ seed_arg $ n_arg $ d_arg $ k_arg)

(* --- run (scenario files) --- *)

let scenario_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCENARIO" ~doc:"Scenario file (key = value lines).")

let run_scenario path =
  match Rumor_cli.Scenario.parse_file path with
  | Error msg ->
      prerr_endline ("scenario error: " ^ msg);
      2
  | Ok scenario ->
      let report = Rumor_cli.Scenario.run scenario in
      Format.printf "%a@." Rumor_cli.Scenario.pp_report report;
      if report.Rumor_cli.Scenario.success_rate = 1. then 0 else 1

let run_cmd =
  let info = Cmd.info "run" ~doc:"Execute a scenario file." in
  Cmd.v info Term.(const run_scenario $ scenario_file_arg)

(* --- chaos / replay --- *)

module Chaos = Rumor_cli.Chaos

let budget_arg =
  let doc =
    "Wall-clock budget in seconds (e.g. 60 or 60s). Sampling stops when \
     the budget is exhausted."
  in
  Arg.(value & opt (some string) None & info [ "budget" ] ~docv:"SECONDS" ~doc)

let max_configs_arg =
  let doc = "Maximum number of sampled configurations." in
  Arg.(value & opt (some int) None & info [ "max-configs" ] ~docv:"K" ~doc)

let out_dir_arg =
  let doc = "Directory where repro artifacts are written." in
  Arg.(value & opt string "chaos-artifacts" & info [ "out" ] ~docv:"DIR" ~doc)

let pin_arg =
  let doc =
    "Instead of soaking, run one scenario and write a known-good \
     rumor-chaos/1 artifact (scenario + expected digest) to $(docv) — \
     the file `rumor replay` consumes."
  in
  Arg.(value & opt (some string) None & info [ "pin" ] ~docv:"FILE" ~doc)

let pin_scenario_arg =
  let doc =
    "Scenario file to pin (with --pin). Defaults to the first sampled \
     configuration."
  in
  Arg.(
    value
    & opt (some file) None
    & info [ "pin-scenario" ] ~docv:"SCENARIO" ~doc)

let parse_budget s =
  let s = String.trim s in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = 's' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  match float_of_string_opt s with
  | Some b when b > 0. -> Some b
  | _ -> None

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let outcome_failure_json file (o : Chaos.outcome) =
  Json.Obj
    [
      ("artifact", Json.String file);
      ("digest", Json.String o.Chaos.digest);
      ( "error",
        match o.Chaos.error with Some e -> Json.String e | None -> Json.Null );
      ( "violations",
        Json.List (List.map Encode.violation o.Chaos.violations) );
    ]

let describe_failure (o : Chaos.outcome) =
  match o.Chaos.error with
  | Some e -> "crash: " ^ e
  | None -> (
      match o.Chaos.violations with
      | v :: _ ->
          Format.asprintf "%a (%d total)" Rumor_sim.Invariant.pp_violation v
            o.Chaos.violation_count
      | [] -> "unknown failure")

let chaos seed budget max_configs out json pin pin_scenario =
  match pin with
  | Some pin_file -> (
      (* Pin mode: one run, one artifact, no soaking. *)
      let scenario =
        match pin_scenario with
        | Some path -> (
            match Rumor_cli.Scenario.parse_file path with
            | Ok s -> Ok { s with Rumor_cli.Scenario.reps = 1; domains = 1 }
            | Error e -> Error ("scenario error: " ^ e))
        | None -> Ok (Chaos.sample (Rng.create seed))
      in
      match scenario with
      | Error msg ->
          prerr_endline msg;
          2
      | Ok s ->
          let o = Chaos.run_one s in
          let notes =
            if Chaos.failed o then [ "FAILING repro: " ^ describe_failure o ]
            else [ "known-good pinned run" ]
          in
          write_file pin_file (Chaos.artifact ~notes ~digest:o.Chaos.digest s);
          Printf.printf "pinned %s (digest %s, %d rounds, %s)\n" pin_file
            o.Chaos.digest o.Chaos.rounds
            (if Chaos.failed o then "FAILING" else "clean");
          if Chaos.failed o then 1 else 0)
  | None ->
      let budget_s =
        Option.map
          (fun b ->
            match parse_budget b with
            | Some s -> s
            | None ->
                prerr_endline ("chaos: bad --budget " ^ b);
                exit 2)
          budget
      in
      let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) budget_s in
      let limit =
        match (max_configs, budget_s) with
        | Some k, _ -> k
        | None, Some _ -> max_int
        | None, None -> 25
      in
      let rng = Rng.create seed in
      let failures = ref [] in
      let runs = ref 0 in
      let checked = ref 0 in
      while
        !runs < limit
        && (match deadline with
           | Some t -> Unix.gettimeofday () < t
           | None -> true)
      do
        let s = Chaos.sample rng in
        let o = Chaos.run_one s in
        incr runs;
        checked := !checked + o.Chaos.checked;
        if Chaos.failed o then begin
          if not json then
            Printf.printf "config %d FAILED: %s\n%!" !runs (describe_failure o);
          let fails c = Chaos.failed (Chaos.run_one c) in
          let small = Chaos.shrink ~fails o.Chaos.scenario in
          let so = Chaos.run_one small in
          ensure_dir out;
          let file =
            Filename.concat out (Printf.sprintf "chaos-%d-%03d.txt" seed !runs)
          in
          write_file file
            (Chaos.artifact
               ~notes:[ "FAILING repro: " ^ describe_failure so ]
               ~digest:so.Chaos.digest small);
          if not json then
            Printf.printf "  shrunk repro written to %s\n%!" file;
          failures := (file, so) :: !failures
        end
      done;
      let failures = List.rev !failures in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("schema", Json.String "rumor-chaos/1");
                  ("seed", Json.Int seed);
                  ("configs", Json.Int !runs);
                  ("rounds_checked", Json.Int !checked);
                  ("failures", Json.Int (List.length failures));
                  ( "repros",
                    Json.List
                      (List.map
                         (fun (f, o) -> outcome_failure_json f o)
                         failures) );
                ]))
      else
        Printf.printf
          "chaos soak: %d configs, %d round boundaries checked, %d failure(s)\n"
          !runs !checked (List.length failures);
      if failures = [] then 0 else 1

let chaos_cmd =
  let info =
    Cmd.info "chaos"
      ~doc:
        "Seeded chaos soak: sample random fault/churn/repair configurations, \
         run each with the kernel invariant monitor on, and write a shrunk \
         repro artifact for every violation or crash."
  in
  Cmd.v info
    Term.(
      const chaos $ seed_arg $ budget_arg $ max_configs_arg $ out_dir_arg
      $ json_arg $ pin_arg $ pin_scenario_arg)

let artifact_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"ARTIFACT" ~doc:"rumor-chaos/1 repro artifact file.")

let replay path json =
  match Chaos.parse_artifact_file path with
  | Error msg ->
      prerr_endline ("replay error: " ^ msg);
      2
  | Ok (s, expect) ->
      let o = Chaos.run_one s in
      let matched = String.equal o.Chaos.digest expect in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("schema", Json.String "rumor-chaos/1");
                  ("artifact", Json.String path);
                  ("expect_digest", Json.String expect);
                  ("digest", Json.String o.Chaos.digest);
                  ("match", Json.Bool matched);
                  ("rounds", Json.Int o.Chaos.rounds);
                  ("coverage", Json.Float o.Chaos.coverage);
                  ( "error",
                    match o.Chaos.error with
                    | Some e -> Json.String e
                    | None -> Json.Null );
                  ( "violations",
                    Json.List (List.map Encode.violation o.Chaos.violations) );
                ]))
      else begin
        Printf.printf "replayed %s: digest %s (expected %s) — %s\n" path
          o.Chaos.digest expect
          (if matched then "match" else "MISMATCH");
        (match o.Chaos.error with
        | Some e -> Printf.printf "  crash: %s\n" e
        | None -> ());
        List.iter
          (fun v ->
            Format.printf "  violation: %a@." Rumor_sim.Invariant.pp_violation
              v)
          o.Chaos.violations
      end;
      if matched then 0 else 1

let replay_cmd =
  let info =
    Cmd.info "replay"
      ~doc:
        "Re-run a rumor-chaos/1 repro artifact bit-identically and diff its \
         trajectory digest."
  in
  Cmd.v info Term.(const replay $ artifact_arg $ json_arg)

(* --- bench-check --- *)

let bench_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BENCH.json"
        ~doc:"Bench record written by `bench/main.exe --json`.")

let against_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "against" ] ~docv:"BASELINE.json"
        ~doc:
          "Regression baseline: after validating, diff matrix experiments \
           cell by cell against this rumor-bench/1 file and fail on drift \
           beyond $(b,--tolerance).")

let tolerance_arg =
  Arg.(
    value & opt float 10.
    & info [ "tolerance" ] ~docv:"PCT"
        ~doc:
          "Allowed relative drift per diffable metric, in percent (only \
           meaningful with $(b,--against)).")

(* Schema validation (and, with --against, regression diffing) of
   rumor-bench/1 files; the checks live in {!Rumor_obs.Benchdoc} so the
   test suite pins them. Exit codes: 0 clean; 1 for a schema-valid but
   vacuous document (empty experiments — a broken matrix run must not
   green a gate) or a regression against the baseline; 2 for malformed
   documents and IO errors. *)
let bench_check path against tolerance =
  let read_file p =
    let ic = open_in_bin p in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let load p =
    match Json.of_string (read_file p) with
    | Error e ->
        Printf.eprintf "%s: does not parse: %s\n" p e;
        Error 2
    | Ok doc -> (
        match Benchdoc.validate doc with
        | [] -> Ok doc
        | es ->
            List.iter
              (fun e ->
                Printf.eprintf "%s: %s\n" p (Benchdoc.error_to_string e))
              es;
            if List.for_all (fun e -> e = Benchdoc.Empty_experiments) es then
              Error 1
            else Error 2)
  in
  match load path with
  | Error code -> code
  | Ok candidate -> (
      match against with
      | None ->
          Printf.printf "%s: valid rumor-bench/1 file\n" path;
          0
      | Some bpath -> (
          match load bpath with
          | Error _ -> 2 (* a broken baseline is a setup error, not a diff *)
          | Ok baseline ->
              let r =
                Benchdoc.diff ~baseline ~candidate ~tolerance_pct:tolerance
              in
              List.iter
                (fun n -> Printf.printf "note: %s\n" n)
                r.Benchdoc.notes;
              List.iter
                (fun f -> Printf.eprintf "FAIL: %s\n" f)
                r.Benchdoc.failures;
              if r.Benchdoc.failures = [] then begin
                Printf.printf "%s: within %.1f%% of %s\n" path tolerance
                  bpath;
                0
              end
              else begin
                Printf.eprintf "%s: %d regression(s) against %s\n" path
                  (List.length r.Benchdoc.failures)
                  bpath;
                1
              end))

let bench_check_cmd =
  let info =
    Cmd.info "bench-check"
      ~doc:
        "Validate that a telemetry file written by `bench/main.exe --json` \
         or `rumor matrix --json` conforms to the rumor-bench/1 schema, and \
         optionally diff its matrix experiments against a committed \
         baseline ($(b,--against))."
  in
  Cmd.v info
    Term.(const bench_check $ bench_file_arg $ against_arg $ tolerance_arg)

(* --- serve: the gossip service frontend --- *)

let serve socket workers queue retry_budget backoff_base_ms backoff_cap_ms
    deadline_factor round_budget_us heartbeat_timeout max_restarts
    restart_window drain_timeout quiet =
  let workers =
    if workers = 0 then Experiment.default_domains () else workers
  in
  match
    Service.config ~workers ~queue_capacity:queue ~retry_budget
      ~retry_backoff:
        (Rumor_core.Repair.backoff ~base:backoff_base_ms ~cap:backoff_cap_ms ())
      ~deadline_factor ~round_budget_us ~heartbeat_timeout_s:heartbeat_timeout
      ~max_restarts ~restart_window_s:restart_window ()
  with
  | exception Invalid_argument m ->
      prerr_endline ("rumor serve: " ^ m);
      2
  | config ->
      let transport =
        match socket with
        | Some path -> Server.Unix_socket path
        | None -> Server.Stdio
      in
      Server.run ~config ~drain_timeout_s:drain_timeout ~quiet transport

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix domain socket instead of speaking NDJSON on \
           stdin/stdout. A stale socket file is replaced.")

let serve_workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"W"
        ~doc:"Worker domains (0 = auto: recommended domain count capped at 8).")

let serve_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue capacity. A full queue rejects submissions with a \
           retry_after_ms hint instead of buffering without bound.")

let retry_budget_arg =
  Arg.(
    value & opt int 3
    & info [ "retry-budget" ] ~docv:"R"
        ~doc:"Deadline/incomplete re-runs allowed per session.")

let backoff_base_arg =
  Arg.(
    value & opt int 25
    & info [ "backoff-base-ms" ] ~docv:"MS"
        ~doc:"Initial retry backoff window (randomized exponential).")

let backoff_cap_arg =
  Arg.(
    value & opt int 400
    & info [ "backoff-cap-ms" ] ~docv:"MS" ~doc:"Retry backoff window ceiling.")

let deadline_factor_arg =
  Arg.(
    value & opt float 6.
    & info [ "deadline-factor" ] ~docv:"C"
        ~doc:
          "Per-attempt wall deadline = C * ceil(log2 n) rounds at the \
           per-round budget — the paper's O(log n) bound as an SLO.")

let round_budget_arg =
  Arg.(
    value & opt float 2000.
    & info [ "round-budget-us" ] ~docv:"US"
        ~doc:"Declared wall budget per simulated round, microseconds.")

let heartbeat_arg =
  Arg.(
    value & opt float 0.25
    & info [ "heartbeat-timeout" ] ~docv:"S"
        ~doc:
          "Seconds without a heartbeat after which a busy worker is declared \
           wedged and deposed.")

let max_restarts_arg =
  Arg.(
    value & opt int 8
    & info [ "max-restarts" ] ~docv:"K"
        ~doc:
          "Worker restarts allowed inside the restart window before the \
           circuit breaker opens.")

let restart_window_arg =
  Arg.(
    value & opt float 60.
    & info [ "restart-window" ] ~docv:"S" ~doc:"Restart-intensity window.")

let drain_timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "drain-timeout" ] ~docv:"S"
        ~doc:
          "Hard-kill bound on graceful drain (SIGTERM / shutdown op / EOF): \
           past it, stragglers are cancelled and failed explicitly.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress stderr progress notes.")

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the broadcast service: many independent gossip sessions \
         multiplexed over supervised worker domains, with a bounded \
         admission queue, round-bound-derived deadlines, retry with \
         randomized backoff, crash/wedge failover and graceful drain. \
         Speaks NDJSON (submit/poll/cancel/stats/shutdown) on stdio or a \
         Unix socket."
  in
  Cmd.v info
    Term.(
      const serve $ socket_arg $ serve_workers_arg $ serve_queue_arg
      $ retry_budget_arg $ backoff_base_arg $ backoff_cap_arg
      $ deadline_factor_arg $ round_budget_arg $ heartbeat_arg
      $ max_restarts_arg $ restart_window_arg $ drain_timeout_arg $ quiet_arg)

(* --- load: the fault-injecting load generator --- *)

let load socket rate duration closed n d protocol topology seed alpha fanout
    loss burst_loss burst_len crash_every wedge_every wedge_ms
    settle_timeout json_path exp_id =
  match
    Session.admit
      {
        Scenario.default with
        n;
        d;
        protocol;
        topology;
        seed;
        alpha;
        fanout;
        loss;
        burst_loss;
        burst_len;
      }
  with
  | Error m ->
      prerr_endline ("rumor load: " ^ m);
      2
  | Ok scenario -> (
      match
        Load.cfg ~rate ~duration_s:duration
          ?closed:(if closed = 0 then None else Some closed)
          ~scenario ~crash_every ~wedge_every ~wedge_ms
          ~settle_timeout_s:settle_timeout ()
      with
      | exception Invalid_argument m ->
          prerr_endline ("rumor load: " ^ m);
          2
      | cfg -> (
          match Load.connect socket with
          | exception Unix.Unix_error (e, _, _) ->
              Printf.eprintf "rumor load: cannot connect to %s: %s\n" socket
                (Unix.error_message e);
              1
          | fd ->
              let r, span = Obs_metrics.timed (fun () -> Load.run cfg ~fd) in
              (try Unix.close fd with _ -> ());
              let q p = Latency.quantile r.Load.latency p *. 1e3 in
              Printf.printf
                "rumor-load: %.1fs wall, %d submitted, %d accepted, %d \
                 rejected\n"
                r.Load.wall_s r.Load.submitted r.Load.accepted r.Load.rejected;
              Printf.printf
                "  completed %d, failed %d, shed %d, cancelled %d, degraded \
                 %d\n"
                r.Load.completed r.Load.failed r.Load.shed r.Load.cancelled
                r.Load.degraded;
              Printf.printf "  lost %d, unacked %d, protocol errors %d\n"
                r.Load.lost r.Load.unacked r.Load.protocol_errors;
              Printf.printf
                "  latency p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n"
                (q 0.5) (q 0.9) (q 0.99)
                (Latency.max_seen r.Load.latency *. 1e3);
              Printf.printf
                "  achieved %.1f sessions/s (target %.1f/s), server ok: %b\n"
                r.Load.achieved_rate cfg.Load.rate r.Load.server_ok;
              (match json_path with
              | None -> ()
              | Some path ->
                  let experiment =
                    Benchdoc.experiment ~id:exp_id
                      ~title:
                        "service load: sessions/sec and latency under fault \
                         injection"
                      span (Load.report_json cfg r)
                  in
                  Benchdoc.write path
                    (Benchdoc.document ~quick:false ~reps:1 [ experiment ]);
                  Printf.printf "  wrote %s\n" path);
              if
                r.Load.lost = 0 && r.Load.unacked = 0
                && r.Load.protocol_errors = 0 && r.Load.server_ok
              then 0
              else 1))

let load_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Serve endpoint to connect to.")

let rate_arg =
  Arg.(
    value & opt float 100.
    & info [ "rate" ] ~docv:"R"
        ~doc:
          "Open-loop target, sessions/sec: session k is submitted at \
           start + k/R whether or not the service keeps up.")

let duration_arg =
  Arg.(
    value & opt float 10.
    & info [ "duration" ] ~docv:"S" ~doc:"Load window, seconds.")

let closed_arg =
  Arg.(
    value & opt int 0
    & info [ "closed" ] ~docv:"C"
        ~doc:
          "Closed loop instead: keep C sessions outstanding (0 = open loop).")

let load_n_arg =
  Arg.(value & opt int 4096 & info [ "n" ] ~docv:"N" ~doc:"Nodes per session.")

let load_d_arg =
  Arg.(value & opt int 8 & info [ "d" ] ~docv:"D" ~doc:"Degree.")

let load_protocol_arg =
  Arg.(
    value
    & opt string "push-pull"
    & info [ "protocol" ] ~docv:"P"
        ~doc:(String.concat "|" Scenario.protocols))

let load_topology_arg =
  Arg.(
    value
    & opt string "implicit-regular"
    & info [ "topology" ] ~docv:"T" ~doc:"Topology name (see run --help).")

let load_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S" ~doc:"Base seed; session k uses seed + k.")

let load_alpha_arg =
  Arg.(value & opt float 2.0 & info [ "alpha" ] ~docv:"A" ~doc:"bef alpha.")

let load_fanout_arg =
  Arg.(value & opt int 4 & info [ "fanout" ] ~docv:"F" ~doc:"bef fanout.")

let load_link_loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "link-loss" ] ~docv:"P" ~doc:"Independent per-message loss.")

let load_burst_loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "burst-loss" ] ~docv:"P"
        ~doc:"Stationary Gilbert–Elliott bursty-loss rate.")

let load_burst_len_arg =
  Arg.(
    value & opt float 4.
    & info [ "burst-len" ] ~docv:"L" ~doc:"Mean burst length, rounds.")

let crash_every_arg =
  Arg.(
    value & opt int 0
    & info [ "crash-every" ] ~docv:"K"
        ~doc:
          "Every K-th session asks the service to crash its worker domain \
           mid-run (0 = never) — exercises failover + restart.")

let wedge_every_arg =
  Arg.(
    value & opt int 0
    & info [ "wedge-every" ] ~docv:"K"
        ~doc:
          "Every K-th session wedges its worker past the watchdog timeout \
           (0 = never) — exercises deposition.")

let wedge_ms_arg =
  Arg.(
    value & opt float 400.
    & info [ "wedge-ms" ] ~docv:"MS" ~doc:"Wedge duration.")

let settle_arg =
  Arg.(
    value & opt float 30.
    & info [ "settle-timeout" ] ~docv:"S"
        ~doc:"Grace for stragglers after the load window.")

let load_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a rumor-bench/1 document with the load report.")

let exp_id_arg =
  Arg.(
    value & opt string "E13"
    & info [ "id" ] ~docv:"ID" ~doc:"Experiment id for the JSON document.")

let load_cmd =
  let info =
    Cmd.info "load"
      ~doc:
        "Drive a rumor serve endpoint with generated sessions (open or \
         closed loop) under per-session fault injection, and account for \
         every submission: throughput, p50/p99 latency, rejections, \
         retries, and — the invariant under test — zero lost sessions. \
         Exits 0 iff accounting is airtight and the server monitor is \
         clean."
  in
  Cmd.v info
    Term.(
      const load $ load_socket_arg $ rate_arg $ duration_arg $ closed_arg
      $ load_n_arg $ load_d_arg $ load_protocol_arg $ load_topology_arg
      $ load_seed_arg $ load_alpha_arg $ load_fanout_arg $ load_link_loss_arg
      $ load_burst_loss_arg $ load_burst_len_arg $ crash_every_arg
      $ wedge_every_arg $ wedge_ms_arg $ settle_arg $ load_json_arg
      $ exp_id_arg)

(* --- matrix: declarative scenario grids with gates --- *)

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "OCaml domains used to fan repetitions across cores (0 = auto: \
           recommended domain count capped at 8). Per-repetition RNG streams \
           are pre-forked, so results are bit-identical for every D.")

let resolve_domains d =
  if d < 0 then begin
    prerr_endline "rumor: --domains must be >= 0";
    exit 2
  end
  else if d = 0 then Experiment.default_domains ()
  else d

let matrix_files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"MATRIX"
        ~doc:"Matrix scenario files; each becomes one experiment.")

let matrix_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write a rumor-bench/1 document with one experiment per matrix \
           file (feed it to `rumor bench-check --against`).")

let dry_run_arg =
  Arg.(
    value & flag
    & info [ "dry-run" ]
        ~doc:
          "Print each file's expanded cell table (coordinates, seeds, \
           gates) and exit without running anything.")

(* Service-mode cells: one [rumor load] run against an embedded server
   over a socketpair. The cell's scenario keys shape the session spec,
   its service keys the load generator; metric names match
   {!Matrix.service_metrics}. *)
let matrix_run_service (cell : Matrix.cell) =
  let scenario =
    match
      Session.admit
        { cell.Matrix.scenario with Scenario.seed = cell.Matrix.cell_seed }
    with
    | Ok s -> s
    | Error m ->
        failwith
          (Printf.sprintf "cell %d: not a valid session scenario: %s"
             cell.Matrix.cell_index m)
  in
  let getf key default =
    match List.assoc_opt key cell.Matrix.service with
    | Some v -> float_of_string v
    | None -> default
  in
  let geti key default =
    match List.assoc_opt key cell.Matrix.service with
    | Some v -> int_of_string v
    | None -> default
  in
  let closed = geti "closed" 0 in
  let cfg =
    Load.cfg ~rate:(getf "rate" 100.) ~duration_s:(getf "duration_s" 10.)
      ?closed:(if closed = 0 then None else Some closed)
      ~scenario ~crash_every:(geti "crash_every" 0)
      ~wedge_every:(geti "wedge_every" 0)
      ~wedge_ms:(getf "wedge_ms" 400.)
      ~settle_timeout_s:(getf "settle_timeout_s" 30.)
      ()
  in
  let service_config =
    (* The breaker exists to stop pathological restart loops, not
       deliberate crash injection — size it to the injected cadence. *)
    Service.config
      ~workers:(geti "workers" 4)
      ~max_restarts:(geti "max_restarts" 500)
      ()
  in
  let r, server_clean = Load.run_in_process ~service_config cfg in
  let q p = Latency.quantile r.Load.latency p *. 1e3 in
  let i name v = (name, float_of_int v) in
  [
    ("wall_s", r.Load.wall_s);
    i "submitted" r.Load.submitted;
    i "accepted" r.Load.accepted;
    i "completed" r.Load.completed;
    i "failed" r.Load.failed;
    i "rejected" r.Load.rejected;
    i "shed" r.Load.shed;
    i "degraded" r.Load.degraded;
    i "cancelled" r.Load.cancelled;
    i "lost" r.Load.lost;
    i "unacked" r.Load.unacked;
    i "protocol_errors" r.Load.protocol_errors;
    ("achieved_rate", r.Load.achieved_rate);
    ("p50_ms", q 0.5);
    ("p99_ms", q 0.99);
    ("server_ok", if server_clean && r.Load.server_ok then 1. else 0.);
  ]

let matrix files json_path dry_run domains =
  let domains = resolve_domains domains in
  let rec parse_all acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match Matrix.parse_file f with
        | Error m -> Error (Printf.sprintf "%s: %s" f m)
        | Ok spec -> parse_all ((f, spec) :: acc) rest)
  in
  match parse_all [] files with
  | Error m ->
      prerr_endline ("rumor matrix: " ^ m);
      2
  | Ok specs when dry_run ->
      let bad = ref false in
      List.iter
        (fun (f, spec) ->
          match Matrix.dry_run_table spec with
          | Ok table -> Printf.printf "# %s\n%s\n" f table
          | Error m ->
              bad := true;
              Printf.eprintf "rumor matrix: %s: %s\n" f m)
        specs;
      if !bad then 2 else 0
  | Ok specs ->
      Experiment.with_interrupt_signals (fun () ->
          let errored = ref false in
          let any_truncated = ref false in
          let total_gates_failed = ref 0 in
          let experiments =
            List.filter_map
              (fun (f, spec) ->
                match
                  Obs_metrics.timed (fun () ->
                      Matrix.run ~domains ~run_service:matrix_run_service
                        spec)
                with
                | exception Failure m ->
                    errored := true;
                    Printf.eprintf "rumor matrix: %s: %s\n" f m;
                    None
                | Error m, _ ->
                    errored := true;
                    Printf.eprintf "rumor matrix: %s: %s\n" f m;
                    None
                | Ok rr, span ->
                    let failed = Matrix.gates_failed rr in
                    total_gates_failed := !total_gates_failed + failed;
                    if rr.Matrix.truncated then any_truncated := true;
                    Printf.printf
                      "%s: %s — %d cells, %d gate failure(s)%s\n" f
                      rr.Matrix.spec.Matrix.id
                      (List.length rr.Matrix.outcomes)
                      failed
                      (if rr.Matrix.truncated then " (truncated)" else "");
                    List.iter
                      (fun (o : Matrix.cell_outcome) ->
                        List.iter
                          (fun (g, observed, pass) ->
                            if not pass then
                              Printf.printf
                                "  FAIL cell %d {%s}: %s %s %g, got %g\n"
                                o.Matrix.cell.Matrix.cell_index
                                (String.concat ", "
                                   (List.map
                                      (fun (k, v) -> k ^ " = " ^ v)
                                      o.Matrix.cell.Matrix.coords))
                                g.Matrix.metric
                                (Matrix.op_to_string g.Matrix.op)
                                g.Matrix.bound observed)
                          o.Matrix.gate_results)
                      rr.Matrix.outcomes;
                    Table.print (Matrix.table rr);
                    Some
                      (Benchdoc.experiment ~id:rr.Matrix.spec.Matrix.id
                         ~title:rr.Matrix.spec.Matrix.title span
                         (Matrix.data_json rr)))
              specs
          in
          (match json_path with
          | None -> ()
          | Some path ->
              let reps =
                List.fold_left
                  (fun acc (_, spec) ->
                    max acc spec.Matrix.base.Scenario.reps)
                  1 specs
              in
              Benchdoc.write path
                (Benchdoc.document ~truncated:!any_truncated ~quick:false ~reps
                   experiments);
              Printf.printf "wrote %s\n" path);
          if !errored then 2
          else if !total_gates_failed > 0 || !any_truncated then 1
          else 0)

let matrix_cmd =
  let info =
    Cmd.info "matrix"
      ~doc:
        "Run declarative scenario matrices: sweep/zip grids over scenario \
         keys, per-cell seeds, expectation gates, one shared domain pool \
         across cells. Emits a rumor-bench/1 document for regression \
         diffing with `rumor bench-check --against`. Exit 0: all gates \
         pass; 1: gate failures or an interrupted (truncated) run; 2: \
         parse or setup errors."
  in
  Cmd.v info
    Term.(
      const matrix $ matrix_files_arg $ matrix_json_arg $ dry_run_arg
      $ domains_arg)

(* --- main --- *)

let () =
  let info =
    Cmd.info "rumor" ~version:"1.0.0"
      ~doc:
        "Randomised broadcasting in random regular networks (Berenbrink, \
         Elsasser, Friedetzky)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            broadcast_cmd;
            multi_cmd;
            async_cmd;
            estimate_cmd;
            run_cmd;
            chaos_cmd;
            replay_cmd;
            bench_check_cmd;
            serve_cmd;
            load_cmd;
            matrix_cmd;
          ]))
