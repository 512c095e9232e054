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
let quick_spec =
  { Session.default_spec with Session.n = 256; d = 8; seed = 11 }

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
  let spec = { quick_spec with Session.n = 1024; deadline_ms = None } in
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
          { quick_spec with Session.n; deadline_ms = None }
      in
      let base = dl n in
      base > 0.
      && dl (min Session.max_n (2 * n)) >= base
      && abs_float
           (Session.deadline_s ~deadline_factor:(2. *. f)
              ~round_budget_us:2000.
              { quick_spec with Session.n; deadline_ms = None }
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
  ok quick_spec;
  bad "n too small" { quick_spec with Session.n = 1 };
  bad "n too large (materialised)"
    { quick_spec with Session.topology = "regular"; n = Session.max_n + 1 };
  ok { quick_spec with Session.n = Session.max_n + 2 };
  bad "n beyond the implicit frontier"
    { quick_spec with Session.n = Session.max_implicit_n + 2 };
  bad "odd n on implicit-regular" { quick_spec with Session.n = 257 };
  bad "degree" { quick_spec with Session.d = 0 };
  bad "unknown protocol" { quick_spec with Session.protocol = "udp" };
  bad "unknown topology" { quick_spec with Session.topology = "moebius" };
  bad "loss > 0.9" { quick_spec with Session.link_loss = 0.95 };
  bad "negative loss" { quick_spec with Session.link_loss = -0.1 };
  bad "deadline 0" { quick_spec with Session.deadline_ms = Some 0. };
  List.iter
    (fun protocol -> ok { quick_spec with Session.protocol })
    Session.protocols

(* --- wire codec --- *)

let test_wire_submit_round_trip () =
  let line =
    {|{"op":"submit","n":512,"d":8,"protocol":"bef","seed":7,"link_loss":0.1,"notify":true,"ref":"abc"}|}
  in
  match Wire.parse_request line with
  | Ok (Wire.Submit (spec, notify)) ->
      Alcotest.(check int) "n" 512 spec.Session.n;
      Alcotest.(check string) "protocol" "bef" spec.Session.protocol;
      Alcotest.(check bool) "notify" true notify;
      Alcotest.(check (option string)) "ref" (Some "abc")
        spec.Session.client_ref;
      Alcotest.(check (float 1e-9)) "loss" 0.1 spec.Session.link_loss
  | Ok _ -> Alcotest.fail "parsed as wrong op"
  | Error e -> Alcotest.failf "parse failed: %s" e

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
            submit_ok svc { quick_spec with Session.seed = 100 + k })
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
            submit_ok svc { quick_spec with Session.seed = 300 + k })
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
  let spec = { quick_spec with Session.protocol = "bef"; seed = 5 } in
  with_service (fun svc ->
      let s = submit_ok svc spec in
      Alcotest.(check bool) "terminal" true
        (wait_for (fun () -> Session.is_terminal s));
      let params =
        Rumor_core.Params.make ~alpha:spec.Session.alpha
          ~fanout:spec.Session.fanout ~n_estimate:spec.Session.n
          ~d:spec.Session.d ()
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
      match Service.submit svc { quick_spec with Session.n = 3 } with
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
                quick_spec with
                Session.seed = 500 + k;
                protocol = "bef";
                collect_trace = true;
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
          quick_spec with
          Session.n = 16384;
          seed = 77;
          deadline_ms = Some 1.;
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
        submit_ok svc { quick_spec with Session.seed = 700 + k })
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
                quick_spec with
                Session.seed = 900 + k;
                link_loss = (if k mod 3 = 0 then 0.2 else 0.);
                crash_worker = k mod 7 = 0;
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
      ( "spec", [ Alcotest.test_case "validation" `Quick test_validate_spec ] );
      ( "wire",
        [
          Alcotest.test_case "submit round trip" `Quick
            test_wire_submit_round_trip;
          Alcotest.test_case "ops" `Quick test_wire_ops;
          Alcotest.test_case "hostile input" `Quick test_wire_hostile_input;
          Alcotest.test_case "linebuf framing" `Quick test_linebuf_framing;
          Alcotest.test_case "linebuf overflow poisons" `Quick
            test_linebuf_overflow_poisons;
        ] );
      ( "monitor",
        [ Alcotest.test_case "invariants" `Quick test_monitor_invariants ] );
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
          Alcotest.test_case "clean shutdown" `Quick
            test_service_shutdown_clean;
          Alcotest.test_case "stress with faults" `Slow
            test_service_stress_with_faults;
        ] );
      ("properties", qcheck_cases);
    ]
