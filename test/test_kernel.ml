(* Differential tests for the shared simulation kernel.

   The kernel's contract is that its optimisations — bitsets, decision
   caches, witness-cached quiescence, the incrementally maintained
   census — are invisible: every driver draws randomness in the
   documented order and produces the same trajectories as a naive
   full-rescan round loop. This file pins that three ways:

   - [Ref_engine] is a deliberately slow bool-array transliteration of
     the round schedule (full rescans every round, no caches, list
     bookkeeping). Random (n, d, protocol, fault-plan, skew)
     configurations must produce identical result records through
     [Engine.run] and the reference.
   - The incremental census (no churn hooks) and the full per-round
     recount (hooks installed) must agree on every field — the census
     invariant documented on [Kernel].
   - A single-message [Multi.run] is the same simulation as
     [Engine.run], table for table, under the full fault plan.
   - Every driver follows the protocol's own stopping rule
     ([Protocol.t.stop_at_completion]).

   Plus churn-hook smoke tests for the hook surface Multi/Async gained
   from the kernel. *)

module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Multi = Rumor_sim.Multi
module Async = Rumor_sim.Async
module Fault = Rumor_sim.Fault
module Selector = Rumor_sim.Selector
module Protocol = Rumor_sim.Protocol
module Topology = Rumor_sim.Topology
module Trace = Rumor_sim.Trace
module Baselines = Rumor_core.Baselines
module Algorithm = Rumor_core.Algorithm
module Params = Rumor_core.Params

(* ------------------------------------------------------------------ *)
(* Reference engine: obviously-correct, allocation-happy round loop.  *)
(* ------------------------------------------------------------------ *)

module Ref_engine = struct
  type result = {
    rounds : int;
    completion_round : int option;
    informed : int;
    population : int;
    push_tx : int;
    pull_tx : int;
    channels : int;
    knows : bool array;
    down : int list;
  }

  let run ?(fault = Fault.none) ?skew ~rng ~(topology : Topology.t)
      ~(protocol : 'st Protocol.t) ~sources () =
    let cap = topology.Topology.capacity in
    let alive v = topology.Topology.alive v in
    let skew_f = match skew with Some f -> f | None -> fun _ -> 0 in
    let rt = Fault.start fault ~capacity:cap in
    let informed = Array.make cap false in
    let state =
      Array.init cap (fun _ -> protocol.Protocol.init ~informed:false)
    in
    List.iter
      (fun s ->
        informed.(s) <- true;
        state.(s) <- protocol.Protocol.init ~informed:true)
      sources;
    let selector = Selector.make protocol.Protocol.selector ~capacity:cap in
    let scratch =
      Array.make (max (Selector.fanout protocol.Protocol.selector) 1) 0
    in
    let max_skew = ref 0 in
    for v = 0 to cap - 1 do
      if skew_f v > !max_skew then max_skew := skew_f v
    done;
    let horizon = protocol.Protocol.horizon + !max_skew in
    let push_tx = ref 0 and pull_tx = ref 0 and channels = ref 0 in
    let completion = ref None in
    (* Both queues hold ids in reverse arrival order. *)
    let pending = ref [] in
    let dup_order = ref [] in
    let dups = Array.make cap 0 in
    let decide v r =
      let logical = r - skew_f v in
      if logical < 1 then Protocol.silent
      else protocol.Protocol.decide state.(v) ~round:logical
    in
    let quiet_at r v =
      let logical = r + 1 - skew_f v in
      logical >= 1 && protocol.Protocol.quiescent state.(v) ~round:logical
    in
    let round = ref 0 and stop = ref false in
    while (not !stop) && !round < horizon do
      incr round;
      let r = !round in
      Fault.begin_round rt ~rng ~round:r ~degree:topology.Topology.degree
        ~alive
        ~informed:(fun v -> informed.(v));
      for u = 0 to cap - 1 do
        if alive u && Fault.active rt u then begin
          let d = topology.Topology.degree u in
          if d > 0 then begin
            let k =
              Selector.select selector ~rng ~node:u ~degree:d ~out:scratch
            in
            for i = 0 to k - 1 do
              let w = topology.Topology.neighbor u scratch.(i) in
              if alive w && Fault.active rt w && Fault.channel_ok fault rng
              then begin
                incr channels;
                if
                  informed.(u)
                  && (decide u r).Protocol.push
                  && Fault.push_ok rt rng ~sender:u
                then begin
                  incr push_tx;
                  if informed.(w) || List.mem w !pending then begin
                    if dups.(u) = 0 then dup_order := u :: !dup_order;
                    dups.(u) <- dups.(u) + 1
                  end
                  else pending := w :: !pending
                end;
                if
                  informed.(w)
                  && (decide w r).Protocol.pull
                  && Fault.pull_ok rt rng ~sender:w
                then begin
                  incr pull_tx;
                  if informed.(u) || List.mem u !pending then begin
                    if dups.(w) = 0 then dup_order := w :: !dup_order;
                    dups.(w) <- dups.(w) + 1
                  end
                  else pending := u :: !pending
                end
              end
            done
          end
        end
      done;
      List.iter
        (fun v ->
          informed.(v) <- true;
          state.(v) <-
            protocol.Protocol.receive state.(v)
              ~round:(max 0 (r - skew_f v)))
        (List.rev !pending);
      pending := [];
      List.iter
        (fun v ->
          for _ = 1 to dups.(v) do
            state.(v) <-
              protocol.Protocol.feedback state.(v)
                ~round:(max 0 (r - skew_f v))
          done;
          dups.(v) <- 0)
        (List.rev !dup_order);
      dup_order := [];
      let live = ref 0 and know = ref 0 and quiet = ref true in
      for v = 0 to cap - 1 do
        if alive v then
          if Fault.active rt v then begin
            incr live;
            if informed.(v) then begin
              incr know;
              if not (quiet_at r v) then quiet := false
            end
          end
          else if informed.(v) && Fault.may_recover rt then quiet := false
      done;
      if !completion = None && !live > 0 && !know = !live then
        completion := Some r;
      if !quiet then stop := true;
      if protocol.Protocol.stop_at_completion && !completion <> None then
        stop := true
    done;
    let live = ref 0 and know = ref 0 and down = ref [] in
    for v = cap - 1 downto 0 do
      if alive v then
        if Fault.active rt v then begin
          incr live;
          if informed.(v) then incr know
        end
        else down := v :: !down
    done;
    {
      rounds = !round;
      completion_round = !completion;
      informed = !know;
      population = !live;
      push_tx = !push_tx;
      pull_tx = !pull_tx;
      channels = !channels;
      knows = Array.copy informed;
      down = !down;
    }
end

(* ------------------------------------------------------------------ *)
(* Random configurations.                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  n : int;
  d : int;
  pchoice : int;
  fault : Fault.t;
  skewed : bool;
  stop : bool;
}

let config_of_seed seed =
  let c = Rng.create (0x5EED + seed) in
  let n = 2 * (6 + Rng.int c 20) in
  let d = 3 + Rng.int c 4 in
  let burst =
    if Rng.int c 3 = 0 then Some (Fault.burst ~loss:0.2 ~burst_len:3.)
    else None
  in
  let strike =
    if Rng.int c 3 = 0 then
      let adversary =
        match Rng.int c 3 with
        | 0 -> Fault.Random_nodes
        | 1 -> Fault.Highest_degree
        | _ -> Fault.Frontier
      in
      Some (Fault.strike ~adversary ~at_round:(1 + Rng.int c 4) ~count:d ())
    else None
  in
  let crash = Rng.int c 3 = 0 in
  let fault =
    Fault.plan
      ~call_failure:(0.2 *. Rng.float c)
      ~link_loss:(0.3 *. Rng.float c)
      ~push_loss:(0.15 *. Rng.float c)
      ~pull_loss:(0.15 *. Rng.float c)
      ?burst
      ~crash_rate:(if crash then 0.03 else 0.)
      ~recover_rate:(if crash then 0.3 else 0.)
      ?strike ()
  in
  {
    seed;
    n;
    d;
    pchoice = Rng.int c 4;
    fault;
    skewed = Rng.int c 3 = 0;
    stop = Rng.int c 4 = 0;
  }

let graph_of cfg =
  let rng = Rng.create (0xA11CE + cfg.seed) in
  Regular.sample_connected ~rng ~n:cfg.n ~d:cfg.d Regular.Pairing

(* The protocol state type varies per choice, so the checks run inside
   a polymorphic helper applied at each branch. *)
let with_protocol cfg (check : 'st Protocol.t -> bool) =
  match cfg.pchoice with
  | 0 -> check (Baselines.push ~fanout:1 ~horizon:25 ())
  | 1 -> check (Baselines.pull ~fanout:1 ~horizon:25 ())
  | 2 -> check (Baselines.push_pull ~fanout:1 ~horizon:25 ())
  | _ ->
      check
        (Algorithm.make
           (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:cfg.n ~d:cfg.d ()))

let same_engine_ref (e : Engine.result) (f : Ref_engine.result) =
  e.Engine.rounds = f.Ref_engine.rounds
  && e.Engine.completion_round = f.Ref_engine.completion_round
  && e.Engine.informed = f.Ref_engine.informed
  && e.Engine.population = f.Ref_engine.population
  && e.Engine.push_tx = f.Ref_engine.push_tx
  && e.Engine.pull_tx = f.Ref_engine.pull_tx
  && e.Engine.channels = f.Ref_engine.channels
  && Rumor_sim.Bitset.to_bool_array e.Engine.knows = f.Ref_engine.knows
  && e.Engine.down = f.Ref_engine.down

let same_engine_engine (a : Engine.result) (b : Engine.result) =
  a.Engine.rounds = b.Engine.rounds
  && a.Engine.completion_round = b.Engine.completion_round
  && a.Engine.informed = b.Engine.informed
  && a.Engine.population = b.Engine.population
  && a.Engine.push_tx = b.Engine.push_tx
  && a.Engine.pull_tx = b.Engine.pull_tx
  && a.Engine.channels = b.Engine.channels
  && a.Engine.knows = b.Engine.knows
  && a.Engine.down = b.Engine.down

(* Engine vs reference vs full-census Engine: one random configuration,
   three simulations from the same seed, all fields equal. *)
let engine_differential =
  QCheck.Test.make ~count:80
    ~name:"Engine.run = naive reference = full-census Engine.run"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
      let sources = [ Rng.int (Rng.create (0x50 + seed)) (Graph.n g) ] in
      with_protocol cfg (fun protocol ->
          let protocol =
            { protocol with Protocol.stop_at_completion = cfg.stop }
          in
          let run ?on_round_end () =
            Engine.run ?skew ?on_round_end ~fault:cfg.fault
              ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~sources ()
          in
          let incremental = run () in
          let full = run ~on_round_end:(fun _ -> ()) () in
          let reference =
            Ref_engine.run ?skew ~fault:cfg.fault
              ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~sources ()
          in
          same_engine_ref incremental reference
          && same_engine_engine incremental full))

(* Packed per-node state vs boxed arrays: for rng-pure protocols the
   compact-cell kernel path must be bit-identical to the boxed one —
   same rounds, same trajectories, same knows bitmap. The protocol pool
   here deliberately spans every packed encoding in the tree: the
   baseline received-round code, bef's phase machine, and the Feedback
   counter variants with their two-counter stride packing. *)
type packed_check = { check : 'st. 'st Protocol.t -> bool }

let packed_protocol cfg { check } =
  match cfg.pchoice with
  | 0 -> check (Baselines.push_pull ~fanout:1 ~horizon:25 ())
  | 1 -> check (Rumor_core.Feedback.feedback_counter ~k:2 ~horizon:25 ())
  | 2 -> check (Rumor_core.Feedback.blind_counter ~k:3 ~horizon:25 ())
  | _ ->
      check
        (Algorithm.make
           (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:cfg.n ~d:cfg.d ()))

let packed_boxed_differential =
  QCheck.Test.make ~count:80
    ~name:"Engine.run ~packed:true = Engine.run ~packed:false"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
      let sources = [ Rng.int (Rng.create (0x50 + seed)) (Graph.n g) ] in
      packed_protocol cfg
        {
          check =
            (fun protocol ->
              let protocol =
                { protocol with Protocol.stop_at_completion = cfg.stop }
              in
              let run packed =
                Engine.run ~packed ?skew ~fault:cfg.fault
                  ~rng:(Rng.create (0xF00D + seed))
                  ~topology ~protocol ~sources ()
              in
              same_engine_engine (run true) (run false));
        })

(* The packed encode/decode pair is a bijection on reachable states:
   round-tripping the codes the packed run actually produces recovers
   the boxed state exactly. *)
let packed_codec_roundtrip =
  QCheck.Test.make ~count:120 ~name:"packed encode/decode round-trips"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      packed_protocol cfg
        {
          check =
            (fun protocol ->
              match protocol.Protocol.packed with
              | None -> false (* every pool protocol must carry packed ops *)
              | Some p ->
                  let ops = p.Protocol.ops in
                  let codes =
                    ops.Protocol.p_init ~informed:false
                    :: ops.Protocol.p_init ~informed:true
                    :: List.concat_map
                         (fun round ->
                           let c0 =
                             ops.Protocol.p_receive
                               (ops.Protocol.p_init ~informed:false)
                               ~round
                           in
                           [ c0; ops.Protocol.p_feedback c0 ~round ])
                         [ 1; 2; 7; 25 ]
                  in
                  List.for_all
                    (fun c -> p.Protocol.encode (p.Protocol.decode c) = c)
                    codes);
        })

(* A single rumor through Multi is the same simulation as Engine: both
   drive the whole plan (bursts, crashes, strikes included) through the
   kernel's one fault runtime and stop by the protocol's own rule. *)
let multi_singleton_differential =
  QCheck.Test.make ~count:60
    ~name:"single-message Multi.run = Engine.run (full fault plan)"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let fault = cfg.fault in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let source = Rng.int (Rng.create (0x50 + seed)) (Graph.n g) in
      with_protocol cfg (fun protocol ->
          let e =
            Engine.run ~fault ~rng:(Rng.create (0xF00D + seed)) ~topology
              ~protocol ~sources:[ source ] ()
          in
          let m =
            Multi.run ~fault ~rng:(Rng.create (0xF00D + seed)) ~topology
              ~protocol
              ~messages:[ { Multi.source; created = 0 } ]
              ()
          in
          let mr = m.Multi.messages.(0) in
          m.Multi.rounds = e.Engine.rounds
          && m.Multi.channels = e.Engine.channels
          && m.Multi.population = e.Engine.population
          && mr.Multi.completion_round = e.Engine.completion_round
          && mr.Multi.informed = e.Engine.informed
          && mr.Multi.transmissions = Engine.transmissions e))

(* Multi's census invariant: installing a no-op churn hook switches to
   the full per-round recount and must change nothing, message by
   message, over staggered creation times. *)
let multi_census_differential =
  QCheck.Test.make ~count:60
    ~name:"Multi.run incremental census = full census"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let c = Rng.create (0x5AC + seed) in
      let k = 1 + Rng.int c 3 in
      let messages =
        List.init k (fun j ->
            { Multi.source = Rng.int c (Graph.n g); created = j * Rng.int c 4 })
      in
      with_protocol cfg (fun protocol ->
          let run ?on_round_end () =
            Multi.run ?on_round_end ~fault:cfg.fault ~collect_trace:true
              ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~messages ()
          in
          let a = run () in
          let b = run ~on_round_end:(fun _ -> ()) () in
          a.Multi.rounds = b.Multi.rounds
          && a.Multi.channels = b.Multi.channels
          && a.Multi.population = b.Multi.population
          && a.Multi.messages = b.Multi.messages
          && Trace.rows (Option.get a.Multi.trace)
             = Trace.rows (Option.get b.Multi.trace)))

(* ------------------------------------------------------------------ *)
(* The stopping rule.                                                 *)
(* ------------------------------------------------------------------ *)

(* The protocol owns the rule: the open-ended baselines stop at the end
   of the round (or the activation) that informs the last node, the
   self-terminating ones run their own schedule out — the same way
   through every driver, with no driver argument. *)
let open_ended =
  [
    ("bef", false); ("bef-seq", false); ("push", true); ("pull", true);
    ("push-pull", true); ("push-pull-age", false); ("quasirandom", true);
  ]

let test_drivers_follow_stop_field () =
  let n = 512 and d = 8 in
  let g =
    Regular.sample_connected ~rng:(Rng.create 21) ~n ~d Regular.Pairing
  in
  let topology = Topology.of_graph g in
  List.iter
    (fun name ->
      let p =
        Rumor_cli.Scenario.make_protocol ~protocol:name ~n ~d ~alpha:1.0
          ~fanout:4 ()
      in
      let stop = p.Protocol.stop_at_completion in
      Alcotest.(check bool) (name ^ " is open-ended")
        (List.assoc name open_ended) stop;
      let e =
        Engine.run ~rng:(Rng.create 22) ~topology ~protocol:p ~sources:[ 0 ] ()
      in
      let m =
        Multi.run ~rng:(Rng.create 22) ~topology ~protocol:p
          ~messages:[ { Multi.source = 0; created = 0 } ]
          ()
      in
      let a =
        Async.run ~rng:(Rng.create 22) ~graph:g ~protocol:p ~sources:[ 0 ] ()
      in
      Alcotest.(check bool) (name ^ " Engine.run completes") true
        (e.Engine.completion_round <> None);
      Alcotest.(check bool) (name ^ " Engine.run stops at completion") stop
        (e.Engine.completion_round = Some e.Engine.rounds);
      Alcotest.(check bool) (name ^ " Multi.run stops at completion") stop
        (m.Multi.messages.(0).Multi.completion_round = Some m.Multi.rounds);
      Alcotest.(check bool) (name ^ " Async.run completes") true
        (a.Async.completion_time <> None);
      Alcotest.(check bool) (name ^ " Async.run stops at completion") stop
        (a.Async.completion_time = Some a.Async.time))
    Rumor_cli.Scenario.protocols

(* ------------------------------------------------------------------ *)
(* Churn-hook smoke tests.                                            *)
(* ------------------------------------------------------------------ *)

let protocol () = Baselines.push_pull ~fanout:1 ~horizon:20 ()

let test_multi_hooks () =
  let rng = Rng.create 7 in
  let g = Regular.sample_connected ~rng ~n:64 ~d:4 Regular.Pairing in
  let topology = Topology.of_graph g in
  let fired = ref 0 in
  let r =
    Multi.run ~collect_trace:true
      ~on_round_end:(fun round ->
        incr fired;
        Alcotest.(check int) "hook sees the current round" !fired round)
      ~reset:(fun () -> [ 0 ])
      ~rng ~topology ~protocol:(protocol ())
      ~messages:[ { Multi.source = 1; created = 0 } ]
      ()
  in
  Alcotest.(check int) "hook fired once per round" r.Multi.rounds !fired;
  let t = Option.get r.Multi.trace in
  Alcotest.(check int) "one trace row per round" r.Multi.rounds (Trace.length t);
  (* Node 0 is reset after every round, so the rumor can never cover
     the live population and the final census must exclude it. *)
  Alcotest.(check bool)
    "reset node keeps the rumor incomplete" true
    (r.Multi.messages.(0).Multi.informed < r.Multi.population);
  Alcotest.(check (option int))
    "no completion under perpetual reset" None
    r.Multi.messages.(0).Multi.completion_round

let test_async_hooks () =
  let rng () = Rng.create 11 in
  let g = Regular.sample_connected ~rng:(rng ()) ~n:64 ~d:4 Regular.Pairing in
  let run ?on_round_end ?reset ?(collect_trace = false) () =
    (* Fresh rng with the same seed per run: the unit-boundary machinery
       draws nothing, so hooked and bare runs must coincide. *)
    let r = Rng.create 1213 in
    ignore (Rng.int r 1);
    Async.run ?on_round_end ?reset ~collect_trace ~rng:r ~graph:g
      ~protocol:(protocol ()) ~sources:[ 3 ] ()
  in
  let bare = run () in
  let fired = ref 0 in
  let hooked = run ~on_round_end:(fun _ -> incr fired) ~collect_trace:true () in
  Alcotest.(check int) "activations unchanged by hooks"
    bare.Async.activations hooked.Async.activations;
  Alcotest.(check int) "informed unchanged by hooks" bare.Async.informed
    hooked.Async.informed;
  Alcotest.(check int) "transmissions unchanged by hooks"
    bare.Async.transmissions hooked.Async.transmissions;
  Alcotest.(check (float 0.)) "clock unchanged by hooks" bare.Async.time
    hooked.Async.time;
  (* The result's clock is the overshooting final jump, so boundaries
     it crossed never flush: the hook count is the number of complete
     units the run processed — one per trace row minus the partial row
     that closes the run. *)
  let rows = Trace.rows (Option.get hooked.Async.trace) in
  Alcotest.(check bool) "hook fired at least once" true (!fired >= 1);
  Alcotest.(check bool)
    "hook fired once per completed unit" true
    (!fired = List.length rows || !fired = List.length rows - 1);
  let tx =
    List.fold_left
      (fun acc (row : Trace.row) -> acc + row.Trace.push_tx + row.Trace.pull_tx)
      0 rows
  in
  Alcotest.(check int) "trace rows account for every transmission"
    hooked.Async.transmissions tx;
  let newly =
    List.fold_left
      (fun acc (row : Trace.row) -> acc + row.Trace.newly)
      0 rows
  in
  Alcotest.(check int) "trace rows account for every first receipt"
    (hooked.Async.informed - 1) newly

let test_async_reset () =
  let rng = Rng.create 17 in
  let g = Regular.sample_connected ~rng ~n:32 ~d:4 Regular.Pairing in
  let resets = ref 0 in
  let r =
    Async.run
      ~reset:(fun () ->
        incr resets;
        [ 0 ])
      ~rng ~graph:g ~protocol:(protocol ()) ~sources:[ 1 ] ()
  in
  Alcotest.(check bool) "reset drained at unit boundaries" true (!resets > 0);
  Alcotest.(check bool) "reset count bounded by the clock" true
    (!resets <= int_of_float r.Async.time);
  Alcotest.(check bool) "informed stays within population" true
    (r.Async.informed <= Graph.n g)

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            engine_differential;
            packed_boxed_differential;
            packed_codec_roundtrip;
            multi_singleton_differential;
            multi_census_differential;
          ] );
      ( "stop rule",
        [
          Alcotest.test_case "every driver follows the protocol's field"
            `Quick test_drivers_follow_stop_field;
        ] );
      ( "churn hooks",
        [
          Alcotest.test_case "multi hooks fire and stay consistent" `Quick
            test_multi_hooks;
          Alcotest.test_case "async hooks leave the run unchanged" `Quick
            test_async_hooks;
          Alcotest.test_case "async reset drains at unit boundaries" `Quick
            test_async_reset;
        ] );
    ]
