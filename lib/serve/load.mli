(** The [rumor load] generator: fault-injecting NDJSON load client.

    Drives one serve endpoint either {e open loop} (session [k] is
    submitted at [start + k/rate] no matter what came back — the
    arrival process backpressure cannot slow down, which is what makes
    overload and explicit rejection observable) or {e closed loop}
    (a fixed number outstanding). Per-session faults follow a cadence:
    every [crash_every]-th session asks the service to crash its worker
    domain mid-run, every [wedge_every]-th to wedge it past the
    watchdog timeout.

    Accounting is total: every submission ends as rejected, terminal
    (completed/failed/shed/cancelled), {b lost} (accepted but never
    heard from again — the violation the whole exercise hunts for) or
    {b unacked}. Latency is submit-to-terminal-event at the client,
    queueing included. *)

type cfg = {
  rate : float;
  duration_s : float;
  closed : int option;
  scenario : Rumor_cli.Scenario.t;
      (** template; session [k] runs it at [seed + k], submitted through
          {!Wire.scenario_fields} *)
  crash_every : int;
  wedge_every : int;
  wedge_ms : float;
  settle_timeout_s : float;
}

val cfg :
  ?rate:float ->
  ?duration_s:float ->
  ?closed:int ->
  ?scenario:Rumor_cli.Scenario.t ->
  ?crash_every:int ->
  ?wedge_every:int ->
  ?wedge_ms:float ->
  ?settle_timeout_s:float ->
  unit ->
  cfg
(** Validated; defaults 100/s for 10 s, open loop,
    {!Rumor_cli.Scenario.default}, no injected faults, 30 s settle. The
    scenario is not checked here: sessions the service refuses count
    as rejected. *)

type report = {
  wall_s : float;
  submitted : int;
  accepted : int;
  rejected : int;
  completed : int;
  failed : int;
  shed : int;
  cancelled : int;
  degraded : int;
  unacked : int;
  lost : int;
  protocol_errors : int;
  latency : Rumor_obs.Latency.t;
  achieved_rate : float;  (** terminal sessions per wall second *)
  server_stats : Rumor_obs.Json.t option;
  server_ok : bool;
}

val connect : string -> Unix.file_descr
(** Connect to a serve Unix socket. *)

val run : cfg -> fd:Unix.file_descr -> report
(** Drive the endpoint on [fd] (bidirectional): load window, straggler
    settle (with polling), final server [stats] fetch. *)

val report_json : cfg -> report -> Rumor_obs.Json.t
(** The [rumor-bench/1] experiment payload ([rumor load --json]). *)

val run_in_process :
  ?service_config:Service.config -> cfg -> report * bool
(** Run one load cell against an embedded server: a socketpair joins
    this driver to a {!Server.run} select loop on a background thread
    ([~signals:false] — the host process keeps its own SIGTERM/SIGINT
    handling). Closing the driver's end after the load window is the
    drain request; the returned boolean is whether the server side
    drained cleanly (its would-be exit code was 0). This is how
    [rumor matrix] executes service-mode cells. *)
