(* Single-broadcast workloads ([bef-implicit], [pushpull-faults-csr]).

   This module rebuilds [Scenario.run_rep] from the scenario layer's
   public factories, in its documented draw order — graph/view sample,
   then source, then engine — so that set-up can be timed apart from
   the broadcast and the layers the kernel calls can be wrapped from
   outside. The benchmark's tests pin the equivalence bit-for-bit. *)

open Rumor_rng
open Rumor_sim
module Scenario = Rumor_cli.Scenario
module Algorithm = Rumor_core.Algorithm
module Params = Rumor_core.Params
module Phase = Rumor_core.Phase

type prepared = {
  scenario : Scenario.t;
  topology : Topology.t;
  stream : Rng.t;  (** the repetition's stream, just past the set-up draws *)
}

(* Repair epochs and churn make [run_rep] take other engine entry
   points; those scenarios belong to the grid workload. *)
let setup (s : Scenario.t) rng =
  if s.max_epochs > 0 || s.churn_rate >= 0. || s.join_prob > 0. || s.leave_prob > 0.
  then invalid_arg "Single.setup: repair and churn scenarios run as grids";
  let topology = Scenario.make_topology ~rng ~topology:s.topology ~n:s.n ~d:s.d in
  { scenario = s; topology; stream = rng }

let n_estimate p =
  int_of_float
    (ceil (p.scenario.n_error *. float_of_int p.topology.Topology.capacity))

let make_protocol p =
  let s = p.scenario in
  Scenario.make_protocol ~n_estimate:(n_estimate p) ~protocol:s.protocol
    ~n:p.topology.Topology.capacity ~d:s.d ~alpha:s.alpha ~fanout:s.fanout ()

(* One broadcast on a copy of the prepared stream, so a prepared run
   can be replayed (untraced, then traced) on identical draws. *)
let broadcast ?gate ?collect_trace ?topology ?protocol p =
  let s = p.scenario in
  let topology = Option.value topology ~default:p.topology in
  let protocol =
    match protocol with Some q -> q | None -> make_protocol p
  in
  let rng = Rng.copy p.stream in
  let source =
    if s.source = "first" then 0 else Rng.int rng topology.Topology.capacity
  in
  Engine.run ~fault:(Scenario.fault_plan s)
    ~stop_when_complete:(Scenario.effective_stop s) ~packed:s.packed ?gate
    ?collect_trace ~rng ~topology ~protocol ~sources:[ source ] ()

let schedule p =
  let s = p.scenario in
  if s.protocol <> "bef" then None
  else
    Some
      (Algorithm.schedule_of
         (Params.make ~alpha:s.alpha ~fanout:s.fanout
            ~n_estimate:(max 4 (n_estimate p)) ~d:s.d ())
         None)

(* Output checks: invariants of the protocols and of the channel model,
   never per-seed values. bef stops either right after its pull round
   (nobody was left to inform there) or at the end of its schedule. *)
let check p (r : Engine.result) =
  let fail fmt = Printf.ksprintf Option.some fmt in
  if Engine.coverage r <> 1.0 then fail "coverage %.6f < 1" (Engine.coverage r)
  else if r.push_tx > r.channels || r.pull_tx > r.channels then
    fail "%d push / %d pull on %d channels" r.push_tx r.pull_tx r.channels
  else
    match schedule p with
    | Some sc ->
        let stops =
          match sc.Phase.variant with
          | Phase.Small -> [ sc.Phase.p3_end; sc.Phase.last ]
          | Phase.Large -> [ sc.Phase.last ]
        in
        if List.mem r.rounds stops then None
        else fail "bef ran %d rounds; its schedule stops at %s" r.rounds
            (String.concat " or " (List.map string_of_int stops))
    | None -> None

let node_rounds p (r : Engine.result) =
  float_of_int (p.topology.Topology.capacity * r.rounds)

(* Set-up is timed on copies of the repetition's stream until 20 ms
   have passed, so microsecond set-ups (implicit views) are read as a
   mean over many and graph generation is read once. *)
let timed_setup s rng = Timing.batched ~min_s:0.02 (fun () -> setup s (Rng.copy rng))

(* --- untraced runs: the end-to-end metrics --- *)

let measure ~host ~seconds (s : Scenario.t) =
  let base = Rng.create s.seed in
  let peak_rss_kb, reps =
    Calib.repeat host ~seconds (fun i ->
        (* Start every repetition from a compacted heap, so the GC work
           a repetition sees does not depend on how many ran before
           it. *)
        Gc.compact ();
        let setup_s, p = timed_setup s (Rng.fork base i) in
        let t0 = Timing.now_ns () in
        let r = try Ok (broadcast p) with e -> Error ("raised " ^ Printexc.to_string e) in
        let wall = Timing.seconds_between t0 (Timing.now_ns ()) in
        Printf.eprintf "broadcast %d: setup %.6f s, wall %.6f s, rounds %s\n%!" i
          setup_s wall
          (match r with Ok r -> string_of_int r.rounds | Error _ -> "-");
        let outcome =
          match r with
          | Error e -> Error e
          | Ok r -> (
              match check p r with
              | Some e -> Error e
              | None -> Ok (node_rounds p r /. wall))
        in
        (setup_s, wall, outcome))
  in
  List.iteri
    (fun i (scale, _) -> Printf.eprintf "broadcast %d: host scale %.4f\n" i scale)
    reps;
  let med f = Timing.median (List.map f reps) in
  {
    Report.attempted = List.length reps;
    failures =
      List.concat
        (List.mapi
           (fun i (_, (_, _, o)) ->
             match o with
             | Error e -> [ Printf.sprintf "broadcast %d: %s" i e ]
             | Ok _ -> [])
           reps);
    metrics =
      [
        Report.metric "setup_s" "s" (med (fun (k, (s, _, _)) -> Calib.setup k s));
        Report.metric "wall_s" "s" (med (fun (k, (_, w, _)) -> Calib.wall host k w));
        Report.metric "node_rounds_per_s" "1/s"
          (match
             List.filter_map
               (fun (k, (_, _, o)) ->
                 Option.map (fun r -> 1. /. Calib.wall host k (1. /. r)) (Result.to_option o))
               reps
           with
          | [] -> 0.
          | rates -> Timing.median rates);
        Report.metric "peak_rss_mb" "MiB" (float_of_int peak_rss_kb /. 1024.);
      ];
  }

(* --- probes for the traced run ---

   Every wrapper preserves results: it forwards to the wrapped function
   and only counts (and, for one call in [sample_mask + 1], reads the
   clock around it). The gate always answers [true], which the engine
   documents as leaving draws and results unchanged. *)

let sample_mask = 63

type op = { mutable calls : int; mutable samples : int; mutable sampled_ns : int }

let op () = { calls = 0; samples = 0; sampled_ns = 0 }

let sampled o f a b =
  let c = o.calls in
  o.calls <- c + 1;
  if c land sample_mask <> 0 then f a b
  else begin
    let t0 = Timing.now_ns () in
    let y = f a b in
    o.sampled_ns <- o.sampled_ns + (Timing.now_ns () - t0);
    o.samples <- o.samples + 1;
    y
  end

(* Mean sampled nanoseconds per call, net of the bracketing clock read. *)
let ns_per_call o ~overhead_ns =
  if o.samples = 0 then 0.
  else
    Float.max 0.
      ((float_of_int o.sampled_ns /. float_of_int o.samples) -. overhead_ns)

let self_s o ~overhead_ns = float_of_int o.calls *. ns_per_call o ~overhead_ns *. 1e-9

type probe = {
  neighbor : op;
  mutable alive_calls : int;
  mutable degree_calls : int;
  decide : op;
  receive : op;
  feedback : op;
  quiescent : op;
  mutable round : int;  (** round of the latest gate call; 0 before any *)
  mutable first_ns : int;  (** first gate call of [round] *)
  mutable last_ns : int;  (** latest gate call *)
  mutable opens : (int * int * int) list;
      (** (round, first gate ns, last gate ns), newest first *)
}

let probe () =
  {
    neighbor = op ();
    alive_calls = 0;
    degree_calls = 0;
    decide = op ();
    receive = op ();
    feedback = op ();
    quiescent = op ();
    round = 0;
    first_ns = 0;
    last_ns = 0;
    opens = [];
  }

let wrap_topology pr (t : Topology.t) =
  {
    t with
    Topology.neighbor = (fun v i -> sampled pr.neighbor t.Topology.neighbor v i);
    alive =
      (fun v ->
        pr.alive_calls <- pr.alive_calls + 1;
        t.Topology.alive v);
    degree =
      (fun v ->
        pr.degree_calls <- pr.degree_calls + 1;
        t.Topology.degree v);
  }

let wrap_protocol pr (proto : _ Protocol.t) =
  match proto.Protocol.packed with
  | None -> invalid_arg "Single.wrap_protocol: protocol has no packed ops"
  | Some pk ->
      let o = pk.Protocol.ops in
      let decide c round = o.Protocol.p_decide c ~round
      and receive c round = o.Protocol.p_receive c ~round
      and feedback c round = o.Protocol.p_feedback c ~round
      and quiescent c round = o.Protocol.p_quiescent c ~round in
      let ops =
        {
          o with
          Protocol.p_decide = (fun c ~round -> sampled pr.decide decide c round);
          p_receive = (fun c ~round -> sampled pr.receive receive c round);
          p_feedback = (fun c ~round -> sampled pr.feedback feedback c round);
          p_quiescent = (fun c ~round -> sampled pr.quiescent quiescent c round);
        }
      in
      { proto with Protocol.packed = Some { pk with Protocol.ops } }

(* The engine consults the gate once per live node per round, just
   before the node opens its channels: the first call of a round starts
   channel opening, the last one is the latest point known to lie in it. *)
let gate pr ~informed:_ ~node:_ ~round =
  let t = Timing.now_ns () in
  if round <> pr.round then begin
    if pr.round > 0 then pr.opens <- (pr.round, pr.first_ns, pr.last_ns) :: pr.opens;
    pr.round <- round;
    pr.first_ns <- t
  end;
  pr.last_ns <- t;
  true

let close_rounds pr =
  if pr.round > 0 then pr.opens <- (pr.round, pr.first_ns, pr.last_ns) :: pr.opens;
  pr.round <- 0;
  List.rev pr.opens

(* --- side timings of public layer functions --- *)

let median_of_5 f = Timing.median (List.init 5 (fun _ -> f ()))

let selector_ns spec ~capacity ~degree ~seed =
  let sel = Selector.make spec ~capacity in
  let rng = Rng.create seed in
  let out = Array.make (max 1 (Selector.fanout spec)) 0 in
  let block = 4096 in
  median_of_5 (fun () ->
      let per_block, () =
        Timing.batched ~min_s:0.02 (fun () ->
            for k = 0 to block - 1 do
              ignore (Selector.select sel ~rng ~node:(k mod capacity) ~degree ~out)
            done)
      in
      per_block /. float_of_int block *. 1e9)

(* Uniformly random (node, index) pairs: for a CSR graph this is the
   cache-missing access pattern; the in-run samples see the kernel's
   ascending-node order. *)
let neighbor_ns (t : Topology.t) ~seed =
  let rng = Rng.create seed in
  let m = 1 lsl 16 in
  let vs = Array.init m (fun _ -> Rng.int rng t.Topology.capacity) in
  let is = Array.map (fun v -> Rng.int rng (max 1 (t.Topology.degree v))) vs in
  let sink = ref 0 in
  let ns =
    median_of_5 (fun () ->
        let per_block, () =
          Timing.batched ~min_s:0.02 (fun () ->
              for k = 0 to m - 1 do
                sink := !sink lxor t.Topology.neighbor vs.(k) is.(k)
              done)
        in
        per_block /. float_of_int m *. 1e9)
  in
  ignore (Sys.opaque_identity !sink);
  ns

(* A fresh fault runtime ticked for the run's rounds over the
   workload's topology, per node per round. *)
let fault_tick_ns plan (t : Topology.t) ~rounds ~seed =
  let rng = Rng.create seed in
  let n = t.Topology.capacity in
  let per_run, () =
    Timing.batched ~min_s:0.05 (fun () ->
        let rt = Fault.start plan ~capacity:n in
        for r = 1 to rounds do
          Fault.begin_round rt ~rng ~round:r ~degree:t.Topology.degree
            ~alive:t.Topology.alive ~informed:(fun _ -> false)
        done)
  in
  per_run *. 1e9 /. float_of_int (n * max 1 rounds)

(* Transmissions per node in each of bef's four phases, from the trace
   rows cut at the schedule's boundaries. *)
let phase_tx sc trace ~n =
  let tx = Array.make 4 0 in
  List.iter
    (fun (row : Trace.row) ->
      let k =
        match Phase.phase_of sc ~round:row.Trace.round with
        | Phase.Phase1 -> 0
        | Phase.Phase2 -> 1
        | Phase.Phase3 -> 2
        | Phase.Phase4 | Phase.Finished -> 3
      in
      tx.(k) <- tx.(k) + row.Trace.push_tx + row.Trace.pull_tx)
    (Trace.rows trace);
  Array.map (fun t -> float_of_int t /. float_of_int n) tx

(* The traced run must not change the program it measures. *)
let fidelity (u : Engine.result) (t : Engine.result) =
  if
    u.rounds = t.rounds && u.push_tx = t.push_tx && u.pull_tx = t.pull_tx
    && u.channels = t.channels && u.informed = t.informed
    && u.population = t.population
  then None
  else
    Some
      (Printf.sprintf
         "traced run diverged: rounds %d/%d push %d/%d pull %d/%d channels %d/%d \
          informed %d/%d"
         u.rounds t.rounds u.push_tx t.push_tx u.pull_tx t.pull_tx u.channels
         t.channels u.informed t.informed)

let span_line name ~round t0 t1 =
  Printf.sprintf {|{"span":"%s","round":%d,"start_ns":%d,"end_ns":%d}|} name round t0 t1

(* --- the traced run: per-layer metrics --- *)

(* One untraced and one traced broadcast of the same prepared
   repetition. *)
type pass = {
  ru : Engine.result;
  wall_u : float;
  minor_words : float;
  major_collections : int;
  rt : Engine.result;
  pr : probe;
  opens : (int * int * int) list;
  t2 : int;
  t3 : int;
  wall_t : float;
}

let pass p =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = Timing.now_ns () in
  let ru = broadcast p in
  let t1 = Timing.now_ns () in
  let g1 = Gc.quick_stat () in
  let pr = probe () in
  let topology = wrap_topology pr p.topology in
  let protocol = wrap_protocol pr (make_protocol p) in
  let t2 = Timing.now_ns () in
  let rt = broadcast ~gate:(gate pr) ~collect_trace:true ~topology ~protocol p in
  let t3 = Timing.now_ns () in
  {
    ru;
    wall_u = Timing.seconds_between t0 t1;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    rt;
    pr;
    opens = close_rounds pr;
    t2;
    t3;
    wall_t = Timing.seconds_between t2 t3;
  }

(* Passes repeat repetition 0 of the seed until [seconds] are used, so
   every count is the same in every pass; timings come from the pass
   with the median traced wall, which keeps its split exact. *)
let trace ~seconds (s : Scenario.t) =
  let rng = Rng.fork (Rng.create s.seed) 0 in
  let tg0 = Timing.now_ns () in
  let gen_s, p = timed_setup s rng in
  let tg1 = Timing.now_ns () in
  let n = p.topology.Topology.capacity in
  let overhead_ns = Timing.clock_overhead_ns () in
  let passes = Timing.repeat ~seconds (fun _ -> pass p) in
  let first = List.hd passes in
  let { ru; rt; pr; opens; t2; t3; wall_t; _ } = Timing.median_by (fun q -> q.wall_t) passes in
  let wall_u = Timing.median (List.map (fun q -> q.wall_u) passes) in
  let open_s =
    List.fold_left (fun a (_, f, l) -> a +. Timing.seconds_between f l) 0. opens
  in
  let spec = (make_protocol p).Protocol.selector in
  let seed = s.seed in
  let sel_ns = selector_ns spec ~capacity:n ~degree:s.d ~seed in
  let nb_side_ns = neighbor_ns p.topology ~seed in
  let tick_ns =
    fault_tick_ns (Scenario.fault_plan s) p.topology ~rounds:ru.rounds ~seed
  in
  let topo_self = self_s pr.neighbor ~overhead_ns in
  let sel_self = float_of_int pr.degree_calls *. sel_ns *. 1e-9 in
  let proto_self =
    List.fold_left
      (fun a o -> a +. self_s o ~overhead_ns)
      0.
      [ pr.decide; pr.receive; pr.feedback; pr.quiescent ]
  in
  let fault_self = tick_ns *. float_of_int (n * rt.rounds) *. 1e-9 in
  let kernel_self = wall_t -. topo_self -. sel_self -. proto_self -. fault_self in
  let failures =
    List.concat
      (List.mapi
         (fun i q ->
           List.filter_map
             (Option.map (Printf.sprintf "pass %d: %s" i))
             [
               Option.map (( ^ ) "untraced run: ") (check p q.ru);
               Option.map (( ^ ) "traced run: ") (check p q.rt);
               fidelity q.ru q.rt;
               Option.map (( ^ ) "repeat: ") (fidelity first.ru q.ru);
             ])
         passes)
    @
    if kernel_self < 0. then
      [
        Printf.sprintf "layer self times (%.3f s) exceed the traced wall (%.3f s)"
          (wall_t -. kernel_self) wall_t;
      ]
    else []
  in
  let phases =
    match (schedule p, rt.trace) with
    | Some sc, Some tr -> phase_tx sc tr ~n
    | _ -> Array.make 4 0.
  in
  let rounds_work = node_rounds p ru in
  (* Spans, kept in memory and written once: set-up, the traced
     broadcast, and per round its channel opening and the boundary
     that follows it (round 0 is the engine's preamble). *)
  let spans =
    let rec go prev acc = function
      | [] -> List.rev (span_line "kernel.boundary" ~round:rt.rounds prev t3 :: acc)
      | (r, f, l) :: rest ->
          go l
            (span_line "kernel.open" ~round:r f l
            :: span_line "kernel.boundary" ~round:(r - 1) prev f
            :: acc)
            rest
    in
    span_line "gen" ~round:0 tg0 tg1
    :: span_line "broadcast.traced" ~round:0 t2 t3
    :: go t2 [] opens
  in
  let m = Report.metric and c = Report.metric ~computed:true in
  let tx = ru.push_tx + ru.pull_tx in
  ( {
      Report.attempted = 2 * List.length passes;
      failures;
      metrics =
        [
          Report.count "topology.neighbor_calls" pr.neighbor.calls;
          c "topology.neighbor_ns" "ns" (ns_per_call pr.neighbor ~overhead_ns);
          c "topology.neighbor_side_ns" "ns" nb_side_ns;
          Report.count "topology.alive_calls" pr.alive_calls;
          c "topology.self_s" "s" topo_self;
          Report.count "selector.calls" pr.degree_calls;
          c "selector.ns" "ns" sel_ns;
          c "selector.self_s" "s" sel_self;
          Report.count "protocol.decide_calls" pr.decide.calls;
          Report.count "protocol.receive_calls" pr.receive.calls;
          Report.count "protocol.feedback_calls" pr.feedback.calls;
          Report.count "protocol.quiescent_calls" pr.quiescent.calls;
          c "protocol.self_s" "s" proto_self;
          Report.count "kernel.rounds" ru.rounds;
          Report.count "kernel.channels" ru.channels;
          m "kernel.tx_per_channel" "ratio"
            (float_of_int tx /. float_of_int (max 1 ru.channels));
          m "kernel.open_s" "s" open_s;
          m "kernel.boundary_s" "s" (wall_t -. open_s);
          c "kernel.self_s" "s" kernel_self;
          c "fault.tick_ns_per_node" "ns" tick_ns;
          c "fault.self_s" "s" fault_self;
          m "gen.sample_s" "s" gen_s;
          m "gen.wall_share" "ratio" 0.;
          Report.count "repair.epochs" (Engine.epochs_used ru);
          m "repair.tx_per_node" "tx/node"
            (float_of_int (Engine.repair_tx ru) /. float_of_int (max 1 ru.population));
          m "gc.minor_words_per_node_round" "words"
            (first.minor_words /. rounds_work);
          Report.count "gc.major_collections" first.major_collections;
          m "bef.phase1_tx_per_node" "tx/node" phases.(0);
          m "bef.phase2_tx_per_node" "tx/node" phases.(1);
          m "bef.phase3_tx_per_node" "tx/node" phases.(2);
          m "bef.phase4_tx_per_node" "tx/node" phases.(3);
          m "trace.wall_s" "s" wall_t;
          c "trace.overhead_frac" "ratio" ((wall_t -. wall_u) /. wall_u);
        ];
    },
    spans )
