(* Tests for the rumor_serve service layer: the bounded mailbox, the
   wire codec and line framing, deadline math, and in-process Service
   end-to-end runs covering completion, crash failover, wedge
   deposition, overload rejection, cancellation, shedding tiers, exact
   retry budgets and clean shutdown with conservation reconciled. *)

module Json = Rumor_obs.Json
module Repair = Rumor_core.Repair
module Mailbox = Rumor_serve.Mailbox
module Session = Rumor_serve.Session
module Monitor = Rumor_serve.Monitor
module Service = Rumor_serve.Service
module Wire = Rumor_serve.Wire
module Supervisor = Rumor_serve.Supervisor
module Server = Rumor_serve.Server
module Scenario = Rumor_cli.Scenario
module Engine = Rumor_sim.Engine
module Rng = Rumor_rng.Rng

(* Poll for a condition with a generous timeout: service machinery is
   asynchronous (worker domains + ticker), so tests wait for effects
   rather than sleeping fixed amounts. *)
let wait_for ?(timeout_s = 30.) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Thread.delay 0.005;
      go ())
  in
  go ()

(* Small-n spec so a session costs well under a millisecond: the
   end-to-end tests below run dozens of sessions on whatever cores the
   CI box has. *)
let quick_scenario =
  {
    Scenario.default with
    n = 256;
    d = 8;
    topology = "implicit-regular";
    protocol = "push-pull";
    seed = 11;
  }

let quick_spec = { Session.default_spec with Session.scenario = quick_scenario }

(* [quick_spec] with scenario fields changed. *)
let with_scenario f = { quick_spec with Session.scenario = f quick_scenario }
let seeded seed = with_scenario (fun s -> { s with seed })

let test_config ?(workers = 2) ?(queue_capacity = 16) ?(retry_budget = 2)
    ?(max_restarts = 64) () =
  Service.config ~workers ~queue_capacity ~retry_budget ~max_restarts
    ~retry_backoff:(Repair.backoff ~base:5 ~cap:40 ())
    ~heartbeat_timeout_s:0.2 ()

let submit_ok svc spec =
  match Service.submit svc spec with
  | Service.Accepted s -> s
  | Service.Rejected { reason; _ } ->
      Alcotest.failf "unexpected rejection: %s" reason

let with_service ?config ?on_terminal f =
  let config = match config with Some c -> c | None -> test_config () in
  let svc = Service.create ?on_terminal config in
  Fun.protect
    ~finally:(fun () -> ignore (Service.shutdown svc ~timeout_s:30.))
    (fun () -> f svc)

(* --- Mailbox --- *)

let test_mailbox_bound () =
  let mb = Mailbox.create ~capacity:2 in
  Alcotest.(check bool) "put 1" true (Mailbox.try_put mb 1);
  Alcotest.(check bool) "put 2" true (Mailbox.try_put mb 2);
  Alcotest.(check bool) "put 3 refused at capacity" false
    (Mailbox.try_put mb 3);
  Alcotest.(check int) "length" 2 (Mailbox.length mb);
  (* force_put bypasses the bound for already-admitted work *)
  Mailbox.force_put mb 4;
  Alcotest.(check int) "forced past bound" 3 (Mailbox.length mb);
  Alcotest.(check int) "high water tracks the excess" 3
    (Mailbox.high_water mb);
  Alcotest.(check (option int)) "fifo take" (Some 1) (Mailbox.take_opt mb);
  Alcotest.(check (option int)) "fifo take" (Some 2) (Mailbox.take_opt mb);
  Alcotest.(check (option int)) "fifo take" (Some 4) (Mailbox.take_opt mb);
  Alcotest.(check (option int)) "empty non-blocking" None
    (Mailbox.take_opt mb)

let test_mailbox_close () =
  let mb = Mailbox.create ~capacity:4 in
  ignore (Mailbox.try_put mb 1);
  Mailbox.close mb;
  Alcotest.(check bool) "closed" true (Mailbox.is_closed mb);
  Alcotest.(check bool) "put after close refused" false
    (Mailbox.try_put mb 2);
  Alcotest.check_raises "force_put after close raises" Mailbox.Closed
    (fun () -> Mailbox.force_put mb 3);
  (* remaining elements drain before take reports exhaustion *)
  Alcotest.(check (option int)) "drains residue" (Some 1) (Mailbox.take mb);
  Alcotest.(check (option int)) "then None, not a hang" None (Mailbox.take mb);
  Mailbox.close mb (* idempotent *)

let test_mailbox_blocking_take_wakes_on_close () =
  let mb = Mailbox.create ~capacity:4 in
  let got = Atomic.make (Some 99) in
  let d = Domain.spawn (fun () -> Atomic.set got (Mailbox.take mb)) in
  Thread.delay 0.02;
  Mailbox.close mb;
  Domain.join d;
  Alcotest.(check (option int)) "blocked taker released with None" None
    (Atomic.get got)

let test_mailbox_concurrent_conservation () =
  (* 2 producer domains x 200 items through a tiny queue into 2
     consumer domains: nothing lost, nothing duplicated. *)
  let mb = Mailbox.create ~capacity:8 in
  let per = 200 in
  let producer base () =
    for i = 0 to per - 1 do
      Mailbox.force_put mb (base + i)
    done
  in
  let seen = Array.make (2 * per) 0 in
  let seen_mu = Mutex.create () in
  let consumer () =
    let rec go () =
      match Mailbox.take mb with
      | None -> ()
      | Some v ->
          Mutex.lock seen_mu;
          seen.(v) <- seen.(v) + 1;
          Mutex.unlock seen_mu;
          go ()
    in
    go ()
  in
  let cs = [ Domain.spawn consumer; Domain.spawn consumer ] in
  let ps = [ Domain.spawn (producer 0); Domain.spawn (producer per) ] in
  List.iter Domain.join ps;
  Mailbox.close mb;
  List.iter Domain.join cs;
  Array.iteri
    (fun i c ->
      if c <> 1 then Alcotest.failf "item %d seen %d times" i c)
    seen;
  Alcotest.(check bool) "high water bounded by forced burst" true
    (Mailbox.high_water mb <= 2 * per)

(* --- deadline math --- *)

let test_deadline_derivation () =
  let spec = with_scenario (fun s -> { s with n = 1024 }) in
  (* 6 * ceil_log2 1024 * 2000us = 6 * 10 * 2ms = 120ms *)
  Alcotest.(check (float 1e-9)) "derived from the round bound" 0.12
    (Session.deadline_s ~deadline_factor:6. ~round_budget_us:2000. spec);
  let explicit = { spec with Session.deadline_ms = Some 45. } in
  Alcotest.(check (float 1e-9)) "explicit overrides" 0.045
    (Session.deadline_s ~deadline_factor:6. ~round_budget_us:2000. explicit)

let prop_deadline_monotone_in_n =
  QCheck.Test.make ~count:100
    ~name:"derived deadline is monotone in n and scales with the factor"
    QCheck.(pair (int_range 2 65536) (int_range 1 12))
    (fun (n, factor) ->
      let f = float_of_int factor in
      let dl n =
        Session.deadline_s ~deadline_factor:f ~round_budget_us:2000.
          (with_scenario (fun s -> { s with n }))
      in
      let base = dl n in
      base > 0.
      && dl (min Session.max_n (2 * n)) >= base
      && abs_float
           (Session.deadline_s ~deadline_factor:(2. *. f)
              ~round_budget_us:2000.
              (with_scenario (fun s -> { s with n }))
           -. (2. *. base))
         < 1e-9)

(* --- spec validation (the wire is hostile) --- *)

let test_validate_spec () =
  let ok s =
    match Session.validate_spec s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "expected valid: %s" e
  in
  let bad what s =
    match Session.validate_spec s with
    | Ok _ -> Alcotest.failf "expected invalid: %s" what
    | Error _ -> ()
  in
  let sc f = with_scenario f in
  ok quick_spec;
  bad "n too small" (sc (fun s -> { s with n = 3 }));
  bad "n too large (materialised)"
    (sc (fun s -> { s with topology = "regular"; n = Session.max_n + 1 }));
  ok (sc (fun s -> { s with n = Session.max_n + 2 }));
  bad "n beyond the implicit frontier"
    (sc (fun s -> { s with n = Session.max_implicit_n + 2 }));
  bad "odd n on implicit-regular" (sc (fun s -> { s with n = 257 }));
  ok (sc (fun s -> { s with topology = "complete"; n = 2048 }));
  bad "complete past its cap"
    (sc (fun s -> { s with topology = "complete"; n = 2049 }));
  bad "degree" (sc (fun s -> { s with d = 0 }));
  bad "unknown protocol" (sc (fun s -> { s with protocol = "udp" }));
  bad "unknown topology" (sc (fun s -> { s with topology = "moebius" }));
  bad "loss > 0.9" (sc (fun s -> { s with loss = 0.95 }));
  bad "negative loss" (sc (fun s -> { s with loss = -0.1 }));
  bad "non-finite alpha" (sc (fun s -> { s with alpha = Float.nan }));
  bad "deadline 0" { quick_spec with Session.deadline_ms = Some 0. };
  List.iter
    (fun protocol -> ok (sc (fun s -> { s with protocol })))
    Scenario.protocols

(* Keys a session can newly reach scale its work; each has a cap, at
   which a submit is still admitted and past which it is refused. *)
let test_admission_cap key ~at ~past () =
  let submit v =
    Wire.parse_request
      (Printf.sprintf
         {|{"op":"submit","topology":"regular","n":256,"%s":%s}|} key v)
  in
  (match submit at with
  | Ok (Wire.Submit _) -> ()
  | Ok _ -> Alcotest.fail "parsed as wrong op"
  | Error e -> Alcotest.failf "%s = %s at the cap refused: %s" key at e);
  match submit past with
  | Ok _ -> Alcotest.failf "%s = %s past the cap admitted" key past
  | Error _ -> ()

(* --- wire codec --- *)

let test_wire_submit_round_trip () =
  let line =
    {|{"op":"submit","n":512,"d":8,"protocol":"bef","seed":7,"loss":0.1,"notify":true,"ref":"abc"}|}
  in
  match Wire.parse_request line with
  | Ok (Wire.Submit (spec, notify)) ->
      let s = spec.Session.scenario in
      Alcotest.(check int) "n" 512 s.Scenario.n;
      Alcotest.(check string) "protocol" "bef" s.Scenario.protocol;
      Alcotest.(check bool) "notify" true notify;
      Alcotest.(check (option string)) "ref" (Some "abc")
        spec.Session.client_ref;
      Alcotest.(check (float 1e-9)) "loss" 0.1 s.Scenario.loss;
      (* Unnamed keys take the scenario language's defaults. *)
      Alcotest.(check string) "default topology" Scenario.default.topology
        s.Scenario.topology;
      Alcotest.(check (float 0.)) "default alpha" Scenario.default.alpha
        s.Scenario.alpha
  | Ok _ -> Alcotest.fail "parsed as wrong op"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* A submit is a scenario file in JSON form: the fault, churn, size
   estimate and repair keys all reach the session, and a scenario
   rendered as submit fields parses back to itself. *)
let test_wire_scenario_keys () =
  let scenario =
    {
      Scenario.default with
      n = 512;
      topology = "regular";
      protocol = "push";
      seed = 99;
      loss = 0.05;
      crash_adversary = "frontier";
      crash_count = 3;
      crash_round = 2;
      partition_round = 2;
      heal_round = 5;
      churn_rate = 0.01;
      n_error = 2.5;
      max_epochs = 3;
      source = "first";
    }
  in
  let line =
    Wire.to_line
      (Rumor_obs.Json.Obj
         (("op", Rumor_obs.Json.String "submit")
         :: Wire.scenario_fields scenario))
  in
  match Wire.parse_request (String.trim line) with
  | Ok (Wire.Submit (spec, _)) ->
      if spec.Session.scenario <> scenario then
        Alcotest.failf "scenario changed on the wire: %s" line
  | Ok _ -> Alcotest.fail "parsed as wrong op"
  | Error e -> Alcotest.failf "parse failed: %s (%s)" e line

let test_wire_ops () =
  (match Wire.parse_request {|{"op":"poll","id":"s-42"}|} with
  | Ok (Wire.Poll 42) -> ()
  | _ -> Alcotest.fail "poll");
  (match Wire.parse_request {|{"op":"cancel","id":"s-7"}|} with
  | Ok (Wire.Cancel 7) -> ()
  | _ -> Alcotest.fail "cancel");
  (match Wire.parse_request {|{"op":"stats"}|} with
  | Ok Wire.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match Wire.parse_request {|{"op":"ping"}|} with
  | Ok Wire.Ping -> ()
  | _ -> Alcotest.fail "ping");
  match Wire.parse_request {|{"op":"shutdown"}|} with
  | Ok Wire.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown"

let test_wire_hostile_input () =
  let rejects what line =
    match Wire.parse_request line with
    | Ok _ -> Alcotest.failf "should reject: %s" what
    | Error _ -> ()
  in
  rejects "garbage" "not json at all";
  rejects "non-object" {|[1,2,3]|};
  rejects "missing op" {|{"n":512}|};
  rejects "unknown op" {|{"op":"exec"}|};
  rejects "unknown field is an error, not ignored"
    {|{"op":"submit","n":512,"bogus":1}|};
  rejects "misspelled field" {|{"op":"submit","protocl":"bef"}|};
  rejects "bad id shape" {|{"op":"poll","id":"42"}|};
  rejects "negative id" {|{"op":"poll","id":"s--3"}|};
  rejects "out-of-range spec" {|{"op":"submit","n":3}|};
  rejects "old field name" {|{"op":"submit","link_loss":0.1}|};
  rejects "reps: a session is one repetition" {|{"op":"submit","reps":3}|};
  rejects "domains" {|{"op":"submit","domains":2}|};
  rejects "duplicate field" {|{"op":"submit","n":512,"n":1024}|};
  rejects "complete past its cap" {|{"op":"submit","topology":"complete","n":4096}|};
  rejects "null old field name" {|{"op":"submit","link_loss":null}|};
  rejects "null reps" {|{"op":"submit","reps":null}|};
  rejects "null unknown field" {|{"op":"submit","bogus":null}|};
  (match Wire.parse_request {|{"op":"submit","loss":null,"churn_rate":null}|} with
  | Ok (Wire.Submit (spec, _)) ->
      Alcotest.(check bool) "null keeps the defaults" true
        (spec.Session.scenario = Scenario.default)
  | _ -> Alcotest.fail "null on a scenario key should keep its default");
  rejects "non-scalar value" {|{"op":"submit","n":[512]}|};
  rejects "cross-key check"
    {|{"op":"submit","partition_round":5,"heal_round":3}|};
  rejects "deep nesting capped"
    (String.concat "" (List.init 64 (fun _ -> "[")));
  (* id codec round trip *)
  Alcotest.(check (option int)) "id round trip" (Some 123)
    (Wire.id_of_string (Wire.id_to_string 123));
  Alcotest.(check (option int)) "id rejects junk" None
    (Wire.id_of_string "s-12x")

let test_linebuf_framing () =
  let lb = Wire.Linebuf.create () in
  let feed s = Wire.Linebuf.feed lb (Bytes.of_string s) 0 (String.length s) in
  Alcotest.(check (list string)) "partial line held back" [] (feed {|{"op":|});
  Alcotest.(check (list string))
    "completion + next partial" [ {|{"op":"ping"}|} ]
    (feed "\"ping\"}\n{\"op\"");
  Alcotest.(check (list string))
    "crlf tolerated, two lines in one chunk"
    [ {|{"op":"stats"}|}; "x" ]
    (feed ":\"stats\"}\r\nx\n");
  Alcotest.(check bool) "no overflow" false (Wire.Linebuf.overflowed lb)

let test_linebuf_overflow_poisons () =
  let lb = Wire.Linebuf.create ~max_line:64 () in
  let chunk = String.make 65 'a' in
  let out =
    Wire.Linebuf.feed lb (Bytes.of_string chunk) 0 (String.length chunk)
  in
  Alcotest.(check (list string)) "nothing surfaced" [] out;
  Alcotest.(check bool) "overflowed" true (Wire.Linebuf.overflowed lb);
  (* poisoned forever, even for well-formed input *)
  let out2 = Wire.Linebuf.feed lb (Bytes.of_string "ok\n") 0 3 in
  Alcotest.(check (list string)) "poisoned" [] out2

(* --- Monitor --- *)

let test_monitor_invariants () =
  let m = Monitor.create ~queue_bound:4 ~restart_cap:2 () in
  Monitor.incr m `Accepted;
  Monitor.note_terminal m ~already_terminal:false Session.Completed;
  Alcotest.(check bool) "conserved" true (Monitor.reconcile m ~in_flight:0);
  Alcotest.(check bool) "ok" true (Monitor.ok m);
  Monitor.note_terminal m ~already_terminal:true Session.Completed;
  Alcotest.(check bool) "double terminal is a violation" false (Monitor.ok m);
  let m2 = Monitor.create ~queue_bound:4 ~restart_cap:2 () in
  Monitor.observe_queue m2 (4 * 2 + 64 + 1);
  Alcotest.(check bool) "queue blow-out recorded" false (Monitor.ok m2);
  let m3 = Monitor.create ~queue_bound:4 ~restart_cap:2 () in
  Monitor.incr m3 `Accepted;
  Alcotest.(check bool) "lost session caught" false
    (Monitor.reconcile m3 ~in_flight:0)

(* --- Service end-to-end (in process) --- *)

let test_service_completes_sessions () =
  with_service (fun svc ->
      let sessions =
        List.init 12 (fun k ->
            submit_ok svc (seeded (100 + k)))
      in
      Alcotest.(check bool) "all reach a terminal state" true
        (wait_for (fun () -> List.for_all Session.is_terminal sessions));
      List.iter
        (fun s ->
          (match s.Session.state with
          | Session.Done Session.Completed -> ()
          | _ -> Alcotest.failf "session %d not completed" s.Session.id);
          match s.Session.stats with
          | Some st ->
              Alcotest.(check int) "full coverage" st.Session.population
                st.Session.informed
          | None -> Alcotest.fail "missing run stats")
        sessions;
      Alcotest.(check int) "in_flight drained" 0 (Service.in_flight svc);
      Alcotest.(check bool) "latency recorded per session" true
        (Rumor_obs.Latency.count (Service.latency svc) >= 12);
      Alcotest.(check bool) "monitor clean" true
        (Monitor.ok (Service.monitor svc)))

let test_service_on_terminal_fires_once () =
  let fired = Atomic.make 0 in
  with_service
    ~on_terminal:(fun _ -> Atomic.incr fired)
    (fun svc ->
      let sessions =
        List.init 6 (fun k ->
            submit_ok svc (seeded (300 + k)))
      in
      Alcotest.(check bool) "terminal" true
        (wait_for (fun () -> List.for_all Session.is_terminal sessions));
      Alcotest.(check bool) "callbacks delivered" true
        (wait_for (fun () -> Atomic.get fired >= 6)));
  Alcotest.(check int) "exactly once per session" 6 (Atomic.get fired)

(* Sessions share the scenario stopping rule: bef runs its phase
   schedule out (quiescing after phase 3 when nobody is active in
   phase 4) instead of stopping at the first fully-informed round. *)
let test_service_bef_runs_schedule_out () =
  let spec = with_scenario (fun s -> { s with protocol = "bef"; seed = 5 }) in
  with_service (fun svc ->
      let s = submit_ok svc spec in
      Alcotest.(check bool) "terminal" true
        (wait_for (fun () -> Session.is_terminal s));
      let sc = spec.Session.scenario in
      let params =
        Rumor_core.Params.make ~alpha:sc.Scenario.alpha
          ~fanout:sc.Scenario.fanout ~n_estimate:sc.Scenario.n
          ~d:sc.Scenario.d ()
      in
      let sched = Rumor_core.Algorithm.schedule_of params None in
      match s.Session.stats with
      | Some st ->
          let r = st.Session.rounds in
          if r <> sched.Rumor_core.Phase.p3_end && r <> sched.last then
            Alcotest.failf "bef session stopped at round %d, schedule p3_end %d last %d"
              r sched.p3_end sched.last
      | None -> Alcotest.fail "missing run stats")

let test_service_crash_failover () =
  with_service (fun svc ->
      let s =
        submit_ok svc { quick_spec with Session.crash_worker = true }
      in
      Alcotest.(check bool) "recovers to terminal" true
        (wait_for (fun () -> Session.is_terminal s));
      (match s.Session.state with
      | Session.Done Session.Completed -> ()
      | st -> Alcotest.failf "wanted completed, got %s" (Session.state_name st));
      Alcotest.(check bool) "failover recorded" true (s.Session.failovers >= 1);
      let m = Service.monitor svc in
      Alcotest.(check bool) "restart counted" true (Monitor.count m `Restarts >= 1);
      Alcotest.(check bool) "no invariant violated" true (Monitor.ok m))

let test_service_wedge_deposed () =
  with_service (fun svc ->
      let s = submit_ok svc { quick_spec with Session.wedge_ms = 600. } in
      Alcotest.(check bool) "deposed and failed over to terminal" true
        (wait_for (fun () -> Session.is_terminal s));
      (match s.Session.state with
      | Session.Done Session.Completed -> ()
      | st -> Alcotest.failf "wanted completed, got %s" (Session.state_name st));
      let m = Service.monitor svc in
      Alcotest.(check bool) "deposition counted" true
        (Monitor.count m `Deposed >= 1);
      Alcotest.(check bool) "failover counted" true
        (Monitor.count m `Failovers >= 1);
      Alcotest.(check bool) "monitor clean" true (Monitor.ok m))

let test_service_overload_rejects () =
  (* 1 worker wedged on a long session + capacity 2: the 4th submit
     must be refused with a positive retry hint, and the queue must
     never exceed its bound. *)
  let config =
    Service.config ~workers:1 ~queue_capacity:2 ~retry_budget:0
      ~heartbeat_timeout_s:5. ~max_restarts:64 ()
  in
  with_service ~config (fun svc ->
      let slow = { quick_spec with Session.wedge_ms = 500. } in
      let _running = submit_ok svc slow in
      (* wait until the worker has pulled the blocker off the queue, so
         the two fillers below account for the whole bound *)
      Alcotest.(check bool) "worker occupied" true
        (wait_for (fun () -> Service.queue_length svc = 0));
      let q1 = submit_ok svc quick_spec in
      let q2 = submit_ok svc quick_spec in
      ignore q1;
      ignore q2;
      (match Service.submit svc quick_spec with
      | Service.Rejected { reason; retry_after_ms } ->
          Alcotest.(check string) "overload reason" "overloaded" reason;
          Alcotest.(check bool) "retry hint positive" true (retry_after_ms > 0.)
      | Service.Accepted _ ->
          (* the queue may have been drained between submits; the bound
             must still hold *)
          Alcotest.(check bool) "queue within bound" true
            (Service.queue_length svc <= 2));
      Alcotest.(check bool) "rejections counted" true
        (Monitor.count (Service.monitor svc) `Rejected >= 0))

let test_service_invalid_spec_rejected () =
  with_service (fun svc ->
      match Service.submit svc (with_scenario (fun s -> { s with n = 3 })) with
      | Service.Rejected { retry_after_ms; _ } ->
          Alcotest.(check (float 1e-9)) "permanent: no retry hint" 0.
            retry_after_ms
      | Service.Accepted _ -> Alcotest.fail "invalid spec accepted")

let test_service_cancel () =
  let config =
    Service.config ~workers:1 ~queue_capacity:8 ~retry_budget:0
      ~heartbeat_timeout_s:5. ~max_restarts:64 ()
  in
  with_service ~config (fun svc ->
      (* Occupy the only worker so the next session stays Queued. *)
      let blocker = { quick_spec with Session.wedge_ms = 300. } in
      let _b = submit_ok svc blocker in
      Alcotest.(check bool) "blocker running" true
        (wait_for (fun () -> Service.queue_length svc = 0));
      let victim = submit_ok svc quick_spec in
      Alcotest.(check bool) "queued victim cancels" true
        (Service.cancel svc victim.Session.id);
      (match victim.Session.state with
      | Session.Done Session.Cancelled -> ()
      | st -> Alcotest.failf "wanted cancelled, got %s" (Session.state_name st));
      Alcotest.(check bool) "cancel is not idempotent-true" false
        (Service.cancel svc victim.Session.id);
      Alcotest.(check bool) "unknown id" false (Service.cancel svc 999_999))

let test_service_shedding_tiers () =
  (* Saturate a 1-worker service; once occupancy crosses the tiers,
     new sessions lose traces and bef downgrades to push&pull. *)
  let config =
    Service.config ~workers:1 ~queue_capacity:8 ~retry_budget:0
      ~shed_trace_at:0.25 ~shed_degrade_at:0.5 ~heartbeat_timeout_s:5.
      ~max_restarts:64 ()
  in
  with_service ~config (fun svc ->
      let blocker = { quick_spec with Session.wedge_ms = 500. } in
      let _b = submit_ok svc blocker in
      Alcotest.(check bool) "blocker running" true
        (wait_for (fun () -> Service.queue_length svc = 0));
      (* Fill past 50% of capacity 8. *)
      let queued =
        List.init 5 (fun k ->
            submit_ok svc
              {
                (with_scenario (fun s ->
                     { s with seed = 500 + k; protocol = "bef" }))
                with
                Session.trace = true;
              })
      in
      Alcotest.(check bool) "tier escalated" true (Service.tier svc >= 2);
      let last = List.nth queued 4 in
      Alcotest.(check bool) "trace shed at depth" false
        last.Session.trace_enabled;
      Alcotest.(check string) "bef degraded to push-pull" "push-pull"
        last.Session.protocol;
      Alcotest.(check bool) "marked degraded" true last.Session.degraded;
      Alcotest.(check bool) "degraded counted" true
        (Monitor.count (Service.monitor svc) `Degraded >= 1))

let test_service_exact_retry_budget () =
  (* deadline_ms:0.001-ish is invalid (min 1ms float allowed?), use an
     impossible 1ms deadline on a large-enough n that every attempt
     expires: the session must fail after exactly retry_budget + 1
     attempts and retry_budget recorded retries. *)
  let budget = 2 in
  let config =
    Service.config ~workers:2 ~queue_capacity:8 ~retry_budget:budget
      ~retry_backoff:(Repair.backoff ~base:1 ~cap:2 ())
      ~max_restarts:64 ()
  in
  with_service ~config (fun svc ->
      let spec =
        {
          (with_scenario (fun s -> { s with n = 16384; seed = 77 })) with
          Session.deadline_ms = Some 1.;
        }
      in
      let s = submit_ok svc spec in
      Alcotest.(check bool) "terminates" true
        (wait_for (fun () -> Session.is_terminal s));
      (match s.Session.state with
      | Session.Done (Session.Failed msg) ->
          Alcotest.(check bool) "mentions deadline" true
            (String.length msg > 0)
      | st -> Alcotest.failf "wanted failed, got %s" (Session.state_name st));
      Alcotest.(check int) "retries = budget" budget s.Session.retries;
      Alcotest.(check int) "attempts = budget + 1" (budget + 1)
        s.Session.attempts;
      Alcotest.(check bool) "retries counted" true
        (Monitor.count (Service.monitor svc) `Retries >= budget))

let test_service_shutdown_clean () =
  let svc = Service.create (test_config ()) in
  let sessions =
    List.init 8 (fun k ->
        submit_ok svc (seeded (700 + k)))
  in
  let clean = Service.shutdown svc ~timeout_s:30. in
  Alcotest.(check bool) "shutdown clean" true clean;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d terminal after shutdown" s.Session.id)
        true (Session.is_terminal s))
    sessions;
  (* conservation: accepted = terminal, nothing lost *)
  let m = Service.monitor svc in
  Alcotest.(check bool) "reconciled" true (Monitor.reconcile m ~in_flight:0);
  Alcotest.(check int) "terminal total" 8 (Monitor.terminal_total m);
  (match Service.submit svc quick_spec with
  | Service.Rejected { reason; _ } ->
      Alcotest.(check string) "post-shutdown submits refused" "draining" reason
  | Service.Accepted _ -> Alcotest.fail "accepted after shutdown");
  match Service.stats_json svc with
  | Json.Obj fields ->
      Alcotest.(check bool) "stats json has monitor" true
        (List.mem_assoc "monitor" fields)
  | _ -> Alcotest.fail "stats_json not an object"

let test_service_stress_with_faults () =
  (* The in-process analogue of the CI smoke: a burst of sessions with
     crash + wedge + loss injection sprinkled in; every accepted
     session must reach exactly one terminal state. *)
  let config =
    Service.config ~workers:3 ~queue_capacity:64 ~retry_budget:3
      ~retry_backoff:(Repair.backoff ~base:2 ~cap:10 ())
      ~heartbeat_timeout_s:0.2 ~max_restarts:256 ()
  in
  with_service ~config (fun svc ->
      let sessions =
        List.init 30 (fun k ->
            let spec =
              {
                (with_scenario (fun s ->
                     {
                       s with
                       seed = 900 + k;
                       loss = (if k mod 3 = 0 then 0.2 else 0.);
                     }))
                with
                Session.crash_worker = k mod 7 = 0;
                wedge_ms = (if k mod 11 = 5 then 400. else 0.);
              }
            in
            submit_ok svc spec)
      in
      Alcotest.(check bool) "all 30 reach terminal despite faults" true
        (wait_for ~timeout_s:60. (fun () ->
             List.for_all Session.is_terminal sessions));
      let m = Service.monitor svc in
      Alcotest.(check bool) "conservation holds" true
        (Monitor.reconcile m ~in_flight:(Service.in_flight svc));
      Alcotest.(check bool) "no invariant violated" true (Monitor.ok m);
      Alcotest.(check int) "terminal = accepted" 30 (Monitor.terminal_total m))

(* --- one execution path: a session is a Scenario.run_rep --- *)

(* Run attempt [k] of [spec] in process, as a worker would. *)
let exec_attempt ?(beat = ignore) spec k =
  let t = Session.make ~id:1 ~now:0. ~notify:false ~conn:(-1) spec in
  t.Session.attempts <- k;
  match
    Session.exec ~deadline_factor:1e6 ~round_budget_us:1e6 ~beat t
  with
  | Session.Finished (stats, _) -> stats
  | _ -> Alcotest.fail "attempt did not finish"

(* Attempt k's stats are exactly those of rep k-1 of Scenario.run: the
   same stream, topology, source rule and fault plan. *)
let check_parity what (scenario : Scenario.t) =
  List.iter
    (fun k ->
      let st =
        exec_attempt { Session.default_spec with Session.scenario } k
      in
      let r =
        Scenario.run_rep scenario
          (Rng.fork (Rng.create scenario.Scenario.seed) (k - 1))
      in
      let where = Printf.sprintf "%s attempt %d" what k in
      Alcotest.(check int) (where ^ " rounds") r.Engine.rounds
        st.Session.rounds;
      Alcotest.(check int) (where ^ " informed") r.Engine.informed
        st.Session.informed;
      Alcotest.(check int) (where ^ " population") r.Engine.population
        st.Session.population;
      Alcotest.(check int) (where ^ " transmissions")
        (Engine.transmissions r) st.Session.transmissions)
    [ 1; 2 ]

let test_session_parity () =
  List.iter
    (fun protocol ->
      List.iter
        (fun topology ->
          List.iter
            (fun seed ->
              check_parity
                (Printf.sprintf "%s/%s/seed %d" protocol topology seed)
                { quick_scenario with protocol; topology; seed })
            [ 3; 4 ])
        [ "implicit-regular"; "regular"; "hypercube" ])
    Scenario.protocols

let test_session_parity_faults () =
  let scenario =
    {
      quick_scenario with
      topology = "regular";
      protocol = "push-pull";
      seed = 21;
      loss = 0.1;
      crash_rate = 0.01;
      recover_rate = 0.1;
      crash_adversary = "frontier";
      crash_count = 4;
      crash_round = 2;
      partition_round = 2;
      heal_round = 4;
      churn_rate = 0.01;
      max_epochs = 4;
    }
  in
  check_parity "faults + churn + repair" scenario

(* The session beats once per round and never before round 1: sampling
   the graph is not charged to the watchdog. *)
let test_session_beats_per_round () =
  let beats = ref 0 in
  let spec = with_scenario (fun s -> { s with topology = "regular" }) in
  let st = exec_attempt ~beat:(fun () -> incr beats) spec 1 in
  Alcotest.(check int) "one beat per round" st.Session.rounds !beats

(* Run one session through a one-worker pool with a 0.1 s heartbeat
   timeout; count failovers until [handle] returns or [timeout_s]. *)
let supervise_one ~setup_grace ~timeout_s handle =
  let mailbox = Mailbox.create ~capacity:4 in
  let handled = Atomic.make 0 and failovers = Atomic.make 0 in
  let handle ~beat s =
    handle ~beat s;
    Atomic.incr handled
  in
  let sup =
    Supervisor.create
      ~config:(Supervisor.config ~workers:1 ~heartbeat_timeout_s:0.1 ())
      ~mailbox ~handle
      ~setup_grace:(fun _ -> setup_grace)
      ~on_failover:(fun _ -> Atomic.incr failovers)
      ~on_restart:ignore ~on_deposed:ignore ()
  in
  let session = Session.make ~id:1 ~now:0. ~notify:false ~conn:(-1) quick_spec in
  ignore (Mailbox.try_put mailbox session);
  let finished =
    wait_for ~timeout_s (fun () ->
        Supervisor.scan sup ~now:(Unix.gettimeofday ());
        Atomic.get handled = 1 || Atomic.get failovers > 0)
  in
  (finished, Atomic.get failovers, fun () ->
      Supervisor.begin_drain sup;
      Mailbox.close mailbox;
      ignore (Supervisor.drain sup ~timeout_s:5.))

(* An attempt whose setup outlasts the heartbeat timeout, but not its
   setup grace, and whose rounds beat well inside the timeout is slow
   to start, not wedged. *)
let test_setup_not_charged_to_heartbeat () =
  let finished, failovers, stop =
    supervise_one ~setup_grace:2. ~timeout_s:10. (fun ~beat _ ->
        Unix.sleepf 0.3;
        for _ = 1 to 10 do
          beat ();
          Unix.sleepf 0.01
        done)
  in
  stop ();
  Alcotest.(check bool) "attempt finished" true finished;
  Alcotest.(check int) "never deposed" 0 failovers

(* A setup that never reaches a round is deposed once its grace runs
   out: nothing before round 1 may hold a worker for ever. *)
let test_setup_past_grace_deposed () =
  let release = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let deposed, failovers, stop =
    supervise_one ~setup_grace:0.2 ~timeout_s:5. (fun ~beat:_ _ ->
        while not (Atomic.get release) do
          Unix.sleepf 0.005
        done)
  in
  let waited = Unix.gettimeofday () -. t0 in
  Atomic.set release true;
  stop ();
  Alcotest.(check bool) "deposed" true deposed;
  Alcotest.(check int) "failed over once" 1 failovers;
  Alcotest.(check bool) "not before grace + timeout" true (waited >= 0.3)

(* An explicit deadline_ms covers the whole attempt, setup included:
   a 1 ms budget is spent sampling a 2^16-node graph, so the attempt
   ends at its first round's check. A budget started at round 1 would
   pass that check and end a round later. *)
let test_explicit_deadline_covers_setup () =
  let spec =
    {
      (with_scenario (fun s -> { s with topology = "regular"; n = 65536 }))
      with
      Session.deadline_ms = Some 1.;
    }
  in
  let t = Session.make ~id:1 ~now:0. ~notify:false ~conn:(-1) spec in
  t.Session.attempts <- 1;
  let beats = ref 0 in
  let beat () = incr beats in
  match Session.exec ~deadline_factor:6. ~round_budget_us:2000. ~beat t with
  | Session.Deadline_expired ->
      Alcotest.(check int) "expired at the first round" 1 !beats
  | _ -> Alcotest.fail "an explicit deadline should count the setup"

(* EOF on the primary connection drains the server, and the drain
   still delivers the events of sessions in flight at the EOF. *)
let test_server_eof_delivers_events () =
  let client, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server =
    Thread.create
      (fun () -> Server.run ~quiet:true ~signals:false (Server.Fd server_fd))
      ()
  in
  let line =
    {|{"op":"submit","n":65536,"topology":"regular","protocol":"push-pull","notify":true}
|}
  in
  ignore (Unix.write_substring client line 0 (String.length line));
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read client chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        read_all ()
  in
  read_all ();
  Thread.join server;
  Unix.close client;
  let events =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l ->
           match Json.of_string l with
           | Ok j -> Json.member "event" j = Some (Json.String "session")
           | Error _ -> false)
  in
  Alcotest.(check int) "the in-flight session's event arrives" 1
    (List.length events)

(* --- backoff gap sharing (service side of the Repair policy) --- *)

let prop_retry_gap_in_window =
  QCheck.Test.make ~count:200
    ~name:"service retry gaps lie in the Repair backoff envelope"
    QCheck.(triple (int_range 1 50) (int_range 0 8) small_int)
    (fun (base, attempt, seed) ->
      let b = Repair.backoff ~base ~cap:(base * 16) () in
      let rng = Rumor_rng.Rng.create (seed + 1) in
      let gap = Repair.backoff_gap b ~rng ~attempt in
      let w = Repair.backoff_window b ~attempt in
      gap >= 1 && gap <= w)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_deadline_monotone_in_n; prop_retry_gap_in_window ]

let () =
  Alcotest.run "rumor_serve"
    [
      ( "mailbox",
        [
          Alcotest.test_case "bound + force_put" `Quick test_mailbox_bound;
          Alcotest.test_case "close semantics" `Quick test_mailbox_close;
          Alcotest.test_case "close wakes blocked taker" `Quick
            test_mailbox_blocking_take_wakes_on_close;
          Alcotest.test_case "concurrent conservation" `Slow
            test_mailbox_concurrent_conservation;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "derivation" `Quick test_deadline_derivation;
        ] );
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_validate_spec;
          Alcotest.test_case "cap churn_rate" `Quick
            (test_admission_cap "churn_rate" ~at:"1" ~past:"1.5");
          Alcotest.test_case "cap max_epochs" `Quick
            (test_admission_cap "max_epochs" ~at:"64" ~past:"65");
          Alcotest.test_case "cap repair_backoff" `Quick
            (test_admission_cap "repair_backoff" ~at:"1024" ~past:"1025");
        ] );
      ( "wire",
        [
          Alcotest.test_case "submit round trip" `Quick
            test_wire_submit_round_trip;
          Alcotest.test_case "scenario keys round trip" `Quick
            test_wire_scenario_keys;
          Alcotest.test_case "ops" `Quick test_wire_ops;
          Alcotest.test_case "hostile input" `Quick test_wire_hostile_input;
          Alcotest.test_case "linebuf framing" `Quick test_linebuf_framing;
          Alcotest.test_case "linebuf overflow poisons" `Quick
            test_linebuf_overflow_poisons;
        ] );
      ( "monitor",
        [ Alcotest.test_case "invariants" `Quick test_monitor_invariants ] );
      ( "parity",
        [
          Alcotest.test_case "attempt k is rep k-1 of run_rep" `Quick
            test_session_parity;
          Alcotest.test_case "faults, churn and repair" `Quick
            test_session_parity_faults;
          Alcotest.test_case "one beat per round" `Quick
            test_session_beats_per_round;
          Alcotest.test_case "setup not charged to the heartbeat" `Slow
            test_setup_not_charged_to_heartbeat;
          Alcotest.test_case "setup past its grace is deposed" `Slow
            test_setup_past_grace_deposed;
          Alcotest.test_case "explicit deadline covers setup" `Quick
            test_explicit_deadline_covers_setup;

        ] );
      ( "service",
        [
          Alcotest.test_case "completes sessions" `Quick
            test_service_completes_sessions;
          Alcotest.test_case "on_terminal exactly once" `Quick
            test_service_on_terminal_fires_once;
          Alcotest.test_case "bef runs its schedule out" `Quick
            test_service_bef_runs_schedule_out;
          Alcotest.test_case "crash failover" `Slow test_service_crash_failover;
          Alcotest.test_case "wedge deposition" `Slow
            test_service_wedge_deposed;
          Alcotest.test_case "overload rejects" `Slow
            test_service_overload_rejects;
          Alcotest.test_case "invalid spec rejected" `Quick
            test_service_invalid_spec_rejected;
          Alcotest.test_case "cancel" `Slow test_service_cancel;
          Alcotest.test_case "shedding tiers" `Slow
            test_service_shedding_tiers;
          Alcotest.test_case "exact retry budget" `Slow
            test_service_exact_retry_budget;
          Alcotest.test_case "stdio EOF still delivers events" `Quick
            test_server_eof_delivers_events;
          Alcotest.test_case "clean shutdown" `Quick
            test_service_shutdown_clean;
          Alcotest.test_case "stress with faults" `Slow
            test_service_stress_with_faults;
        ] );
      ("properties", qcheck_cases);
    ]
