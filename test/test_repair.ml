(* Tests for the self-healing layer: repair epochs (Engine.run_epochs),
   the pull-timeout/backoff strategy (Repair), and the delivery
   guarantees it restores under bursty loss, crash/recovery and churn. *)

module Rng = Rumor_rng.Rng
module Regular = Rumor_gen.Regular
module Topology = Rumor_sim.Topology
module Fault = Rumor_sim.Fault
module Selector = Rumor_sim.Selector
module Protocol = Rumor_sim.Protocol
module Engine = Rumor_sim.Engine
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Repair = Rumor_core.Repair
module Overlay = Rumor_p2p.Overlay
module Churn = Rumor_p2p.Churn

let pusher ~horizon =
  {
    Protocol.name = "test-push";
    selector = Selector.Uniform { fanout = 1 };
    horizon;
    init = (fun ~informed -> informed);
    decide =
      (fun st ~round ->
        ignore st;
        ignore round;
        { Protocol.push = true; pull = false });
    receive = (fun _ ~round -> ignore round; true);
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > horizon);
    stop_at_completion = false;
    packed = None;
  }

let regular ~seed ~n ~d =
  let rng = Rng.create seed in
  Regular.sample_connected ~rng ~n ~d Regular.Pairing

(* --- config --- *)

let test_config_defaults () =
  let cfg = Repair.config ~n:1024 () in
  Alcotest.(check int) "timeout" 2 cfg.Repair.timeout;
  Alcotest.(check int) "backoff_base" 1 cfg.Repair.backoff_base;
  Alcotest.(check int) "backoff_cap" 8 cfg.Repair.backoff_cap;
  Alcotest.(check int) "epoch_rounds" 20 cfg.Repair.epoch_rounds;
  Alcotest.(check int) "quiescence" 20 cfg.Repair.quiescence;
  Alcotest.(check int) "max_epochs" 8 cfg.Repair.max_epochs

let test_config_validation () =
  Alcotest.check_raises "timeout"
    (Invalid_argument "Repair.config: timeout must be >= 0") (fun () ->
      ignore (Repair.config ~timeout:(-1) ~n:16 ()));
  Alcotest.check_raises "backoff_base"
    (Invalid_argument "Repair.config: backoff_base must be >= 1") (fun () ->
      ignore (Repair.config ~backoff_base:0 ~n:16 ()));
  Alcotest.check_raises "cap < base"
    (Invalid_argument "Repair.config: backoff_cap must be >= backoff_base")
    (fun () -> ignore (Repair.config ~backoff_base:4 ~backoff_cap:2 ~n:16 ()));
  Alcotest.check_raises "max_epochs"
    (Invalid_argument "Repair.config: max_epochs must be >= 0") (fun () ->
      ignore (Repair.config ~max_epochs:(-1) ~n:16 ()))

(* --- run_epochs basics --- *)

(* A truncated main schedule leaves most of the network uninformed; with
   max_epochs = 0 the healing wrapper must degrade to the plain run. *)
let test_zero_epochs_is_plain_run () =
  let g = regular ~seed:11 ~n:256 ~d:8 in
  let cfg = Repair.config ~max_epochs:0 ~n:256 () in
  let rng = Rng.create 7 in
  let r =
    Repair.heal ~config:cfg ~rng ~graph:g ~protocol:(pusher ~horizon:3)
      ~source:0 ()
  in
  let plain =
    Engine.run ~rng:(Rng.create 7)
      ~topology:(Topology.of_graph g)
      ~protocol:(pusher ~horizon:3) ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "no epochs" 0 (Engine.epochs_used r);
  Alcotest.(check int) "no repair tx" 0 (Engine.repair_tx r);
  Alcotest.(check int) "same informed" plain.Engine.informed r.Engine.informed;
  Alcotest.(check int) "same rounds" plain.Engine.rounds r.Engine.rounds

(* A main schedule that already covers everyone must cost zero epochs. *)
let test_complete_run_needs_no_epoch () =
  let g = regular ~seed:12 ~n:256 ~d:8 in
  let cfg = Repair.config ~n:256 () in
  let r =
    Repair.heal ~config:cfg ~rng:(Rng.create 3) ~graph:g
      ~protocol:(pusher ~horizon:40) ~source:0 ()
  in
  Alcotest.(check bool) "success" true (Engine.success r);
  Alcotest.(check int) "no epochs" 0 (Engine.epochs_used r);
  Alcotest.(check int) "no repair tx" 0 (Engine.repair_tx r)

(* If the rumor goes extinct there is nobody left to pull from, and the
   epoch loop must stop instead of burning its budget. Frontier strike
   at round 1 kills the only knower; recovery amnesia erases the copy. *)
let test_extinct_rumor_stops_epochs () =
  let g = regular ~seed:13 ~n:64 ~d:8 in
  let fault =
    Fault.plan
      ~strike:(Fault.strike ~adversary:Fault.Frontier ~at_round:1 ~count:1 ())
      ~recover_rate:1.0 ()
  in
  let cfg = Repair.config ~n:64 () in
  let r =
    Repair.heal ~fault ~forget_on_recover:true ~config:cfg ~rng:(Rng.create 5)
      ~graph:g ~protocol:(pusher ~horizon:30) ~source:0 ()
  in
  Alcotest.(check int) "nobody informed" 0 r.Engine.informed;
  Alcotest.(check int) "no epochs wasted" 0 (Engine.epochs_used r);
  Alcotest.(check bool) "not a success" false (Engine.success r)

(* --- fault-free repair cost: O(n) transmissions, pull-only --- *)

let test_fault_free_overhead_linear () =
  let n = 1024 and d = 8 in
  let g = regular ~seed:21 ~n ~d in
  let cfg = Repair.config ~n () in
  (* Truncate the main schedule after 3 rounds: only a handful of nodes
     know the rumor, so repair has to inform nearly all of [n]. *)
  let r =
    Repair.heal ~config:cfg ~rng:(Rng.create 9) ~graph:g
      ~protocol:(pusher ~horizon:3) ~source:0 ()
  in
  Alcotest.(check bool) "healed to full coverage" true (Engine.success r);
  Alcotest.(check bool) "used at least one epoch" true
    (Engine.epochs_used r >= 1);
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "epoch %d is pull-only" e.Engine.epoch)
        0 e.Engine.repair_push_tx;
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d tx is O(n)" e.Engine.epoch)
        true
        (e.Engine.repair_pull_tx <= 2 * n))
    r.Engine.repair;
  (* Every uninformed node is informed at most once per epoch and stops
     pulling as soon as it knows, so the whole healing run stays linear. *)
  Alcotest.(check bool) "total repair tx is O(n)" true
    (Engine.repair_tx r <= 2 * n)

(* --- the hostile plan from the acceptance bar ---

   Bursty loss >= 0.2, crash + recovery with amnesia, and join/leave
   churn, all at once. Without repair the run provably strands live
   uninformed nodes; with repair, coverage must reach 1.0 within the
   epoch budget. Both arms share the seed, so the bare run is exactly
   the healed run's main schedule. *)

let hostile_fault () =
  Fault.plan
    ~burst:(Fault.burst ~loss:0.25 ~burst_len:4.)
    ~crash_rate:0.01 ~recover_rate:0.25 ()

let hostile_run ~with_repair ~seed ~n ~d =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let o = Overlay.of_graph ~capacity:(2 * n) g in
  let protocol = Algorithm.make (Params.make ~alpha:2.0 ~n_estimate:n ~d ()) in
  let joined = ref [] in
  let on_round_end _ =
    for _ = 1 to 4 do
      let ev = Churn.session o ~rng ~d ~join_prob:0.5 ~leave_prob:0.5 () in
      match ev.Churn.joined with
      | Some v -> joined := v :: !joined
      | None -> ()
    done
  in
  let reset () =
    let l = !joined in
    joined := [];
    l
  in
  let topology = Overlay.to_topology o in
  let fault = hostile_fault () in
  if with_repair then
    let config = Repair.config ~n () in
    Repair.self_heal ~fault ~config ~reset ~on_round_end ~rng ~topology
      ~protocol ~sources:[ 0 ] ()
  else
    Engine.run ~fault ~forget_on_recover:true ~reset ~on_round_end ~rng
      ~topology ~protocol ~sources:[ 0 ] ()

let test_hostile_plan_heals () =
  let n = 1024 and d = 8 and seed = 3 in
  let bare = hostile_run ~with_repair:false ~seed ~n ~d in
  Alcotest.(check bool) "bare run strands uninformed nodes" true
    (bare.Engine.informed < bare.Engine.population);
  let healed = hostile_run ~with_repair:true ~seed ~n ~d in
  Alcotest.(check bool) "healed run reaches total coverage" true
    (Engine.success healed);
  let cfg = Repair.config ~n () in
  Alcotest.(check bool) "within the epoch budget" true
    (Engine.epochs_used healed <= cfg.Repair.max_epochs);
  Alcotest.(check bool) "repair cost stays linear per epoch" true
    (Engine.repair_tx healed <= 2 * n * max 1 (Engine.epochs_used healed))

(* The per-epoch accounting must agree with the aggregate result. *)
let test_epoch_accounting_consistent () =
  let n = 1024 and d = 8 in
  let g = regular ~seed:31 ~n ~d in
  let cfg = Repair.config ~n () in
  let rng = Rng.create 17 in
  let bare =
    Engine.run ~rng:(Rng.create 17)
      ~topology:(Topology.of_graph g)
      ~protocol:(pusher ~horizon:3) ~sources:[ 0 ] ()
  in
  let r =
    Repair.heal ~config:cfg ~rng ~graph:g ~protocol:(pusher ~horizon:3)
      ~source:0 ()
  in
  let epoch_rounds =
    List.fold_left (fun a e -> a + e.Engine.epoch_rounds) 0 r.Engine.repair
  in
  let epoch_pull =
    List.fold_left (fun a e -> a + e.Engine.repair_pull_tx) 0 r.Engine.repair
  in
  Alcotest.(check int) "rounds add up" r.Engine.rounds
    (bare.Engine.rounds + epoch_rounds);
  Alcotest.(check int) "pull tx adds up" r.Engine.pull_tx
    (bare.Engine.pull_tx + epoch_pull);
  Alcotest.(check int) "repair_tx matches stats" (Engine.repair_tx r) epoch_pull;
  (match r.Engine.repair with
  | [] -> Alcotest.fail "expected at least one epoch"
  | stats ->
      List.iteri
        (fun i e -> Alcotest.(check int) "epochs numbered from 1" (i + 1)
            e.Engine.epoch)
        stats);
  Alcotest.(check (float 1e-9)) "coverage helper" 1.0 (Engine.coverage r)

(* --- backoff policy properties ---

   The [Repair.backoff] policy is shared verbatim by the serve layer's
   session retries (milliseconds) and the repair epochs (rounds), so
   its envelope is pinned by properties rather than a few examples. *)

let backoff_gen =
  QCheck.(
    map
      (fun (base, capx) -> Repair.backoff ~base ~cap:(base * capx) ())
      (pair (int_range 1 1000) (int_range 1 64)))

let prop_backoff_window_formula =
  QCheck.Test.make ~count:300
    ~name:"window_k = min cap (base * 2^min(k,16)) exactly"
    QCheck.(pair backoff_gen (int_range 0 40))
    (fun (b, attempt) ->
      let expect =
        let doubled =
          if attempt >= 16 then b.Repair.base * 65536
          else b.Repair.base * (1 lsl attempt)
        in
        min b.Repair.cap doubled
      in
      Repair.backoff_window b ~attempt = expect)

let prop_backoff_window_monotone_saturates =
  QCheck.Test.make ~count:300
    ~name:"windows double monotonically then saturate at cap"
    backoff_gen
    (fun b ->
      let ws = List.init 24 (fun k -> Repair.backoff_window b ~attempt:k) in
      let rec check prev = function
        | [] -> true
        | w :: rest ->
            w >= prev && w <= b.Repair.cap
            && (w = b.Repair.cap || w = 2 * prev || prev = 0)
            && check w rest
      in
      (match ws with
      | w0 :: rest -> w0 = min b.Repair.cap b.Repair.base && check w0 rest
      | [] -> false)
      && List.nth ws 23 = b.Repair.cap)

let prop_backoff_gap_in_window =
  QCheck.Test.make ~count:500
    ~name:"gap_k uniformly drawn within [1, window_k]"
    QCheck.(triple backoff_gen (int_range 0 20) small_int)
    (fun (b, attempt, seed) ->
      let rng = Rng.create (seed + 17) in
      let w = Repair.backoff_window b ~attempt in
      List.for_all
        (fun _ ->
          let g = Repair.backoff_gap b ~rng ~attempt in
          g >= 1 && g <= w)
        (List.init 20 Fun.id))

let prop_backoff_of_config_consistent =
  QCheck.Test.make ~count:100
    ~name:"backoff_of_config embeds the repair config's policy"
    QCheck.(pair (int_range 1 32) (int_range 1 8))
    (fun (base, capx) ->
      let cfg =
        Repair.config ~n:1024 ~backoff_base:base ~backoff_cap:(base * capx) ()
      in
      let b = Repair.backoff_of_config cfg in
      b.Repair.base = cfg.Repair.backoff_base
      && b.Repair.cap = cfg.Repair.backoff_cap
      && List.for_all
           (fun k ->
             Repair.backoff_window b ~attempt:k
             = min cfg.Repair.backoff_cap
                 (cfg.Repair.backoff_base * (1 lsl k)))
           [ 0; 1; 2; 3; 4 ])

let test_backoff_validation () =
  Alcotest.check_raises "base < 1"
    (Invalid_argument "Repair.backoff: base must be >= 1") (fun () ->
      ignore (Repair.backoff ~base:0 ()));
  Alcotest.check_raises "cap < base"
    (Invalid_argument "Repair.backoff: cap must be >= base") (fun () ->
      ignore (Repair.backoff ~base:10 ~cap:5 ()));
  Alcotest.check_raises "negative attempt"
    (Invalid_argument "Repair.backoff_window: attempt < 0") (fun () ->
      ignore (Repair.backoff_window (Repair.backoff ()) ~attempt:(-1)))

let backoff_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_backoff_window_formula;
      prop_backoff_window_monotone_saturates;
      prop_backoff_gap_in_window;
      prop_backoff_of_config_consistent;
    ]

let () =
  Alcotest.run "repair"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "max_epochs 0 = plain run" `Quick
            test_zero_epochs_is_plain_run;
          Alcotest.test_case "complete run needs none" `Quick
            test_complete_run_needs_no_epoch;
          Alcotest.test_case "extinction stops the loop" `Quick
            test_extinct_rumor_stops_epochs;
          Alcotest.test_case "accounting consistent" `Quick
            test_epoch_accounting_consistent;
        ] );
      ( "guarantees",
        [
          Alcotest.test_case "fault-free overhead O(n)" `Quick
            test_fault_free_overhead_linear;
          Alcotest.test_case "hostile plan heals" `Slow test_hostile_plan_heals;
        ] );
      ( "backoff",
        Alcotest.test_case "validation" `Quick test_backoff_validation
        :: backoff_qcheck_cases );
    ]
