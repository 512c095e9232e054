(* The grid workload ([heal-grid]): a committed matrix file run through
   [Matrix.run] on a shared domain pool, and — for the traced run — the
   same (cell, rep) tasks through [Experiment.run_tasks] ->
   [Scenario.run_rep] with one span per task. *)

open Rumor_sim
module Rng = Rumor_rng.Rng
module Scenario = Rumor_cli.Scenario
module Matrix = Rumor_cli.Matrix
module Experiment = Rumor_stats.Experiment

(* The traced run's pool. The end-to-end grids run on one domain: on a
   2-core shared host a 2-domain grid runs, on identical input, either
   at full speed or with every task about 20% slower, as the host
   places the two cores, so its wall is bimodal from grid to grid. The
   pool is measured by the traced run (README.md). *)
let domains = 2
let measure_domains = 1

let load ~file ~seed =
  let ( let* ) = Result.bind in
  let* spec = Matrix.parse_file file in
  let* spec = Matrix.set_base spec ~key:"seed" ~value:(string_of_int seed) in
  let* cells = Matrix.cells spec in
  Ok (spec, cells)

(* Set-up is matrix parse plus cell expansion, read as a mean over
   repeated loads lasting at least 20 ms. *)
let timed_load ~file ~seed =
  let s, r = Timing.batched ~min_s:0.02 (fun () -> load ~file ~seed) in
  match r with Error e -> failwith e | Ok (spec, cells) -> (s, spec, cells)

let results_of (run : Matrix.run_result) =
  List.map (fun (o : Matrix.cell_outcome) -> (o.cell, o.results)) run.outcomes

(* The scalars two runs of one (cell, rep) must agree on bit-for-bit. *)
let scalars (r : Engine.result) =
  ( (r.rounds, r.completion_round, r.informed, r.population),
    (r.push_tx, r.pull_tx, r.channels, Engine.epochs_used r, Engine.repair_tx r) )

(* A cell with no fault, no churn and an exact size estimate is the
   paper's setting, where the broadcast informs every node. *)
let undisturbed (sc : Scenario.t) =
  sc.loss = 0. && sc.call_failure = 0. && sc.burst_loss = 0. && sc.crash_rate = 0.
  && sc.crash_adversary = "none" && sc.partition_round = 0 && sc.churn_rate <= 0.
  && sc.join_prob = 0. && sc.leave_prob = 0. && sc.n_error = 1.

(* Output checks on one repetition: invariants of the protocols, the
   channel model and the repair budget, never per-seed values. *)
let check_rep (sc : Scenario.t) (r : Engine.result) =
  if undisturbed sc && Engine.coverage r <> 1.0 then
    Some (Printf.sprintf "undisturbed cell ended at coverage %.6f" (Engine.coverage r))
  else if r.informed < 0 || r.informed > r.population then
    Some (Printf.sprintf "informed %d of population %d" r.informed r.population)
  else if r.push_tx > r.channels || r.pull_tx > r.channels then
    Some (Printf.sprintf "%d push / %d pull on %d channels" r.push_tx r.pull_tx r.channels)
  else if Engine.epochs_used r > sc.max_epochs then
    Some (Printf.sprintf "%d repair epochs over a budget of %d" (Engine.epochs_used r) sc.max_epochs)
  else None

let node_rounds cells_results =
  List.fold_left
    (fun acc ((c : Matrix.cell), rs) ->
      List.fold_left
        (fun acc (r : Engine.result) ->
          acc +. float_of_int (c.scenario.Scenario.n * r.rounds))
        acc rs)
    0. cells_results

let check_grid cells_results =
  List.concat_map
    (fun ((c : Matrix.cell), rs) ->
      let sc = c.scenario in
      let missing =
        if List.length rs < sc.Scenario.reps then
          [ Printf.sprintf "cell %d: %d of %d reps" c.cell_index (List.length rs) sc.reps ]
        else []
      in
      missing
      @ List.concat
          (List.mapi
             (fun i r ->
               match check_rep sc r with
               | Some e -> [ Printf.sprintf "cell %d rep %d: %s" c.cell_index i e ]
               | None -> [])
             rs))
    cells_results

let same_grid a b =
  let scalars_of cr = List.map (fun (_, rs) -> List.map scalars rs) cr in
  scalars_of a = scalars_of b

let reps_of cells =
  Array.fold_left (fun a (c : Matrix.cell) -> a + c.scenario.Scenario.reps) 0 cells

let matrix_run ~domains spec =
  try Matrix.run ~domains spec with e -> Error ("raised " ^ Printexc.to_string e)

(* Grid [k] of a run gets its own matrix seed derived from the run's
   seed, so the median over grids also averages over inputs. *)
let grid_seed ~seed k =
  Int64.to_int (Rng.bits64 (Rng.fork (Rng.create seed) k)) land 0x3fffffff

let measure ~host ~seconds ~file ~seed =
  let peak_rss_kb, grids =
    Calib.repeat host ~seconds (fun k ->
        (* Start every grid from a compacted heap, so the GC work a
           grid sees does not depend on how many ran before it. *)
        Gc.compact ();
        let setup_s, spec, cells = timed_load ~file ~seed:(grid_seed ~seed k) in
        let t0 = Timing.now_ns () in
        let run = matrix_run ~domains:measure_domains spec in
        let wall = Timing.seconds_between t0 (Timing.now_ns ()) in
        Printf.eprintf "grid %d: setup %.6f s, wall %.6f s\n%!" k setup_s wall;
        let where = Printf.sprintf "grid %d: " k in
        let reps = reps_of cells in
        match run with
        | Error e -> (setup_s, wall, reps, None, List.init reps (fun _ -> where ^ e))
        | Ok run ->
            let cr = results_of run in
            (setup_s, wall, reps, Some (node_rounds cr /. wall), List.map (( ^ ) where) (check_grid cr)))
  in
  List.iteri (fun k (scale, _) -> Printf.eprintf "grid %d: host scale %.4f\n" k scale) grids;
  let med f = Timing.median (List.map f grids) in
  {
    Report.attempted = List.fold_left (fun a (_, (_, _, r, _, _)) -> a + r) 0 grids;
    failures = List.concat_map (fun (_, (_, _, _, _, f)) -> f) grids;
    metrics =
      [
        Report.metric "setup_s" "s" (med (fun (k, (s, _, _, _, _)) -> Calib.setup k s));
        Report.metric "wall_s" "s" (med (fun (k, (_, w, _, _, _)) -> Calib.wall host k w));
        Report.metric "node_rounds_per_s" "1/s"
          (match
             List.filter_map
               (fun (k, (_, _, _, r, _)) -> Option.map (fun r -> 1. /. Calib.wall host k (1. /. r)) r)
               grids
           with
          | [] -> 0.
          | rates -> Timing.median rates);
        Report.metric "peak_rss_mb" "MiB" (float_of_int peak_rss_kb /. 1024.);
      ];
  }

(* --- the traced path --- *)

type span = {
  task : int;
  rep : int;
  domain : int;
  start_ns : int;
  end_ns : int;
  minor_words : float;  (** allocated by this task, on its own domain *)
  result : Engine.result;
}

let traced_tasks ~domains (cells : Matrix.cell array) =
  let tasks =
    Array.map
      (fun (c : Matrix.cell) ->
        { Experiment.seed = c.cell_seed; reps = c.scenario.Scenario.reps })
      cells
  in
  let t0 = Timing.now_ns () in
  let out =
    Experiment.run_tasks ~domains tasks (fun ~task ~rep rng ->
        let g0 = Gc.quick_stat () in
        let start_ns = Timing.now_ns () in
        let result = Scenario.run_rep cells.(task).scenario rng in
        let end_ns = Timing.now_ns () in
        let g1 = Gc.quick_stat () in
        {
          task;
          rep;
          domain = (Domain.self () :> int);
          start_ns;
          end_ns;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          result;
        })
  in
  let t1 = Timing.now_ns () in
  let spans = List.concat_map (fun a -> List.filter_map Fun.id (Array.to_list a)) (Array.to_list out) in
  (t0, t1, spans)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* The cell metrics [Matrix.run] reports, recomputed from traced
   results the way the matrix layer defines them. *)
let cell_metrics (rs : Engine.result list) =
  let pop (r : Engine.result) = float_of_int (max 1 r.population) in
  let eff (r : Engine.result) =
    float_of_int (Option.value r.completion_round ~default:r.rounds)
  in
  [
    ("coverage", mean (List.map Engine.coverage rs));
    ("rounds", mean (List.map eff rs));
    ("tx_per_node", mean (List.map (fun r -> float_of_int (Engine.transmissions r) /. pop r) rs));
  ]

(* Task [i] of the traced path is cell [i] of [Matrix.run]: per
   repetition the scalars must agree bit-for-bit, and per cell the
   coverage, rounds and tx/node the matrix layer reports. *)
let agreement (run : Matrix.run_result) spans ~label =
  List.concat
    (List.mapi
       (fun i (o : Matrix.cell_outcome) ->
         let mine =
           List.map
             (fun s -> s.result)
             (List.sort
                (fun a b -> compare a.rep b.rep)
                (List.filter (fun s -> s.task = i) spans))
         in
         let reps =
           if List.map scalars mine = List.map scalars o.results then []
           else [ Printf.sprintf "%s: cell %d repetitions differ from Matrix.run" label i ]
         in
         reps
         @ List.filter_map
             (fun (k, v) ->
               match List.assoc_opt k o.metrics with
               | Some v' when Float.equal v v' -> None
               | _ ->
                   Some
                     (Printf.sprintf "%s: cell %d %s %.17g differs from Matrix.run"
                        label i k v))
             (cell_metrics mine))
       run.outcomes)

let gen_sample_s (sc : Scenario.t) ~seed =
  let rng = Rng.create seed in
  Timing.median
    (List.init 5 (fun _ ->
         fst
           (Timing.batched ~min_s:0.02 (fun () ->
                Scenario.make_graph ~rng ~topology:sc.topology ~n:sc.n ~d:sc.d))))

let pool_metrics spans ~t0 ~t1 =
  let wall = Timing.seconds_between t0 t1 in
  let durs = List.map (fun s -> Timing.seconds_between s.start_ns s.end_ns) spans in
  let last_end = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let e = Option.value (Hashtbl.find_opt last_end s.domain) ~default:0 in
      Hashtbl.replace last_end s.domain (max e s.end_ns))
    spans;
  let ends = Hashtbl.fold (fun _ e acc -> e :: acc) last_end [] in
  let first_idle = List.fold_left min max_int ends
  and finish = List.fold_left max 0 ends in
  let busy = List.fold_left ( +. ) 0. durs in
  ( Timing.quantile durs 0.5,
    Timing.quantile durs 0.9,
    busy /. (float_of_int domains *. wall),
    Timing.seconds_between first_idle finish )

let span_line s ~t0 =
  Printf.sprintf
    {|{"span":"pool.rep","task":%d,"rep":%d,"domain":%d,"start_ns":%d,"end_ns":%d,"parent_start_ns":%d}|}
    s.task s.rep s.domain s.start_ns s.end_ns t0

(* One untraced [Matrix.run] and the same tasks traced on the 2-domain
   pool and on 1 domain. *)
type pass = {
  run : Matrix.run_result;
  wall_u : float;
  major_collections : int;
  t0 : int;
  t1 : int;
  spans2 : span list;
  wall2 : float;
  spans1 : span list;
  wall1 : float;
}

let pass spec cells =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let u0 = Timing.now_ns () in
  let run = match matrix_run ~domains spec with Ok r -> r | Error e -> failwith e in
  let u1 = Timing.now_ns () in
  let g1 = Gc.quick_stat () in
  let t0, t1, spans2 = traced_tasks ~domains cells in
  let b0, b1, spans1 = traced_tasks ~domains:1 cells in
  {
    run;
    wall_u = Timing.seconds_between u0 u1;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    t0;
    t1;
    spans2;
    wall2 = Timing.seconds_between t0 t1;
    spans1;
    wall1 = Timing.seconds_between b0 b1;
  }

(* Passes repeat the grid until [seconds] are used; pool figures come
   from the pass with the median 2-domain traced wall. *)
let trace ~seconds ~file ~seed =
  let _, spec, cells = timed_load ~file ~seed:(grid_seed ~seed 0) in
  let passes = Timing.repeat ~seconds (fun _ -> pass spec cells) in
  let first = List.hd passes in
  let q = Timing.median_by (fun q -> q.wall2) passes in
  let med f = Timing.median (List.map f passes) in
  let wall_u = med (fun q -> q.wall_u) and wall1 = med (fun q -> q.wall1) in
  let cr = results_of first.run in
  let failures =
    List.concat
      (List.mapi
         (fun i q ->
           List.map
             (Printf.sprintf "pass %d: %s" i)
             (check_grid (results_of q.run)
             @ (if same_grid cr (results_of q.run) then []
                else [ "the grid differs from the first pass's" ])
             @ agreement q.run q.spans2 ~label:"2-domain traced run"
             @ agreement q.run q.spans1 ~label:"1-domain traced run"))
         passes)
  in
  let p50, p90, busy, straggle = pool_metrics q.spans2 ~t0:q.t0 ~t1:q.t1 in
  let reps = reps_of cells in
  let gen_s = gen_sample_s cells.(0).scenario ~seed in
  let all = List.concat_map snd cr in
  let sum f = List.fold_left (fun a r -> a + f r) 0 all in
  let rounds = sum (fun r -> r.Engine.rounds)
  and channels = sum (fun r -> r.Engine.channels)
  and tx = sum Engine.transmissions
  and pop = sum (fun r -> max 1 r.Engine.population) in
  let minor = List.fold_left (fun a s -> a +. s.minor_words) 0. first.spans1 in
  let m = Report.metric and c = Report.metric ~computed:true in
  ( {
      Report.attempted = 3 * reps * List.length passes;
      failures;
      metrics =
        [
          Report.count "kernel.rounds" rounds;
          Report.count "kernel.channels" channels;
          m "kernel.tx_per_channel" "ratio" (float_of_int tx /. float_of_int (max 1 channels));
          c "gen.sample_s" "s" gen_s;
          c "gen.wall_share" "ratio"
            (gen_s *. float_of_int reps /. (float_of_int domains *. wall_u));
          m "pool.rep_s_p50" "s" p50;
          m "pool.rep_s_p90" "s" p90;
          m "pool.busy_frac" "ratio" busy;
          m "pool.straggle_s" "s" straggle;
          m "pool.speedup" "ratio" (wall1 /. q.wall2);
          Report.count "repair.epochs" (sum Engine.epochs_used);
          m "repair.tx_per_node" "tx/node"
            (float_of_int (sum Engine.repair_tx) /. float_of_int pop);
          m "gc.minor_words_per_node_round" "words" (minor /. node_rounds cr);
          Report.count "gc.major_collections" first.major_collections;
          m "trace.wall_s" "s" q.wall2;
          c "trace.overhead_frac" "ratio" ((q.wall2 -. wall_u) /. wall_u);
        ];
    },
    List.map (span_line ~t0:q.t0) q.spans2 )
