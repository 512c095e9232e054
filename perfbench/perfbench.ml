(* The repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root (perfbench/run.sh builds and runs it).
   [--trace 0] measures the end-to-end metrics for [S] seconds with
   nothing wrapped; [--trace 1] repeats an untraced and a traced pass of
   the same work for [S] seconds and reports the per-layer split.
   Every metric is printed by name with its unit; the last line of
   stdout is the result object. Spans of a traced run go to stderr. *)

open Perfbench_lib
module Scenario = Rumor_cli.Scenario

type kind = Single | Grid

(* Why each workload exists is recorded in perfbench/README.md, with
   how its timings are scaled to the host's speed (see calib.ml): the
   kind of cache its hot data lives in, and the measured sensitivity of
   its time to the reference time. *)
let workloads =
  [
    ("bef-implicit", (Single, { Calib.kind = Cache; sensitivity = 1. }));
    ("pushpull-faults-csr", (Single, { Calib.kind = Memory; sensitivity = 2. }));
    ("heal-grid", (Grid, { Calib.kind = Cache; sensitivity = 1.5 }));
  ]

let workload_dir = "perfbench/workloads"

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("node_rounds_per_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("pass_frac", "ratio");
  ]

let per_layer =
  [
    ("topology.neighbor_calls", "count");
    ("topology.neighbor_ns", "ns");
    ("topology.neighbor_side_ns", "ns");
    ("topology.alive_calls", "count");
    ("topology.self_s", "s");
    ("selector.calls", "count");
    ("selector.ns", "ns");
    ("selector.self_s", "s");
    ("protocol.decide_calls", "count");
    ("protocol.receive_calls", "count");
    ("protocol.feedback_calls", "count");
    ("protocol.quiescent_calls", "count");
    ("protocol.self_s", "s");
    ("kernel.rounds", "count");
    ("kernel.channels", "count");
    ("kernel.tx_per_channel", "ratio");
    ("kernel.open_s", "s");
    ("kernel.boundary_s", "s");
    ("kernel.self_s", "s");
    ("fault.tick_ns_per_node", "ns");
    ("fault.self_s", "s");
    ("gen.sample_s", "s");
    ("gen.wall_share", "ratio");
    ("pool.rep_s_p50", "s");
    ("pool.rep_s_p90", "s");
    ("pool.busy_frac", "ratio");
    ("pool.straggle_s", "s");
    ("pool.speedup", "ratio");
    ("repair.epochs", "count");
    ("repair.tx_per_node", "tx/node");
    ("gc.minor_words_per_node_round", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MiB");
    ("bef.phase1_tx_per_node", "tx/node");
    ("bef.phase2_tx_per_node", "tx/node");
    ("bef.phase3_tx_per_node", "tx/node");
    ("bef.phase4_tx_per_node", "tx/node");
    ("trace.wall_s", "s");
    ("trace.overhead_frac", "ratio");
  ]

(* Put the workload's metrics in the declared order and units. A layer
   a workload cannot reach from outside reads 0 and is labelled in the
   table; README.md lists which layers each workload measures. *)
let declared names (o : Report.outcome) =
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.Report.name = name) o.metrics with
        | Some m when m.Report.unit_ = unit_ -> m
        | Some m ->
            invalid_arg
              (Printf.sprintf "metric %s reported in %s, declared in %s" name
                 m.Report.unit_ unit_)
        | None -> { (Report.metric name unit_ 0.) with Report.origin = Absent })
      names
  in
  List.iter
    (fun (m : Report.metric) ->
      if not (List.mem_assoc m.name names) then
        invalid_arg ("undeclared metric " ^ m.name))
    o.metrics;
  { o with Report.metrics }

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: bef-implicit pushpull-faults-csr heal-grid";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r = Arg.Int (fun v -> r := Some v) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", int_arg seed, "N input seed");
      ("--seconds", int_arg seconds, "S measuring time of an untraced run");
      ("--trace", int_arg trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some (0 | 1 as tr) when t >= 1 -> (s, float_of_int t, tr = 1)
    | _ -> usage ()
  in
  let kind, host =
    match List.assoc_opt !workload workloads with Some k -> k | None -> usage ()
  in
  let file = Filename.concat workload_dir (!workload ^ ".txt") in
  if not (Sys.file_exists file) then begin
    Printf.eprintf "perfbench: %s not found; run from the repository root\n" file;
    exit 2
  end;
  let scenario () =
    match Scenario.parse_file file with
    | Ok s -> { s with Scenario.seed }
    | Error e -> failwith (file ^ ": " ^ e)
  in
  let outcome, spans =
    try
      match (kind, traced) with
      | Single, false -> (Single.measure ~host ~seconds (scenario ()), [])
      | Single, true -> Single.trace ~seconds (scenario ())
      | Grid, false -> (Grid.measure ~host ~seconds ~file ~seed, [])
      | Grid, true -> Grid.trace ~seconds ~file ~seed
    with e ->
      ( { Report.attempted = 1; failures = [ "raised " ^ Printexc.to_string e ]; metrics = [] },
        [] )
  in
  let outcome =
    if traced then
      let top = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576. in
      declared per_layer
        { outcome with metrics = outcome.metrics @ [ Report.metric "gc.top_heap_mb" "MiB" top ] }
    else
      let failed = Report.failed outcome in
      declared end_to_end
        {
          outcome with
          metrics =
            outcome.metrics
            @ [
                Report.metric "pass_frac" "ratio"
                  (1. -. (float_of_int failed /. float_of_int (max 1 outcome.attempted)));
              ];
        }
  in
  List.iter prerr_endline spans;
  Report.print outcome
